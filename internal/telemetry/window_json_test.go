package telemetry

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// windowFixture is one JSONL window written by the map-backed confidence
// histograms that preceded the fixed-array form: cell, confidence and
// margin histograms with bucket indices on both sides of 10, so the sparse
// wire form's key order is exercised.
const windowFixture = "testdata/window.jsonl"

// TestWindowJSONFixtureRoundTrip pins the persisted window format across
// the histogram representation change: reloading a line the old code wrote
// and re-marshaling it gives the identical bytes.
func TestWindowJSONFixtureRoundTrip(t *testing.T) {
	want, err := os.ReadFile(windowFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`"margin":{"count"`)) || !bytes.Contains(want, []byte(`"confidence":{"count"`)) {
		t.Fatal("fixture lacks confidence or margin histograms")
	}
	s := NewStore(StoreConfig{})
	if n, err := s.Reload(bytes.NewReader(want)); err != nil || n != 1 {
		t.Fatalf("Reload = %d, %v; want 1 window", n, err)
	}
	wins, _, err := s.Windows(time.Time{}, time.Time{}, 0, 0)
	if err != nil || len(wins) != 1 {
		t.Fatalf("Windows = %d, %v", len(wins), err)
	}
	var got bytes.Buffer
	if err := NewJSONLSink(&got).WriteWindow(wins[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("re-marshaled window differs from the fixture:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// TestReloadRejectsBucketOutOfRange pins that a persisted confidence bucket
// index outside [0, NumConfidenceBuckets) fails the reload with the
// offending line named, instead of being dropped or clamped.
func TestReloadRejectsBucketOutOfRange(t *testing.T) {
	line, err := os.ReadFile(windowFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`"20"`, `"-1"`} {
		corrupt := strings.Replace(string(line), `"buckets":{"0":1`, `"buckets":{`+bad+`:1`, 1)
		if corrupt == string(line) {
			t.Fatal("fixture has no bucket 0 to corrupt")
		}
		_, err := NewStore(StoreConfig{}).Reload(strings.NewReader(string(line) + corrupt))
		if err == nil {
			t.Fatalf("bucket %s: reload succeeded", bad)
		}
		if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "bucket") {
			t.Errorf("bucket %s: error %q does not name line 2 and the bucket", bad, err)
		}
	}
}
