package server

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"videoplat/internal/flowtable"
	"videoplat/internal/obs"
	"videoplat/internal/registry"
	"videoplat/internal/telemetry"
)

// metricsFixture is one fully populated /stats snapshot: a retrainer, two
// store tiers, verdict and event counts (one event type left out, so a
// vocabulary zero sample is exposed), a stage with no samples beside two
// with latency, and a distinct value in every field a series reads.
func metricsFixture() Stats {
	var st Stats
	st.UptimeSeconds = 3725.5
	st.Replay.Packets = 12345678
	st.Replay.Bytes = 9876543210
	st.Replay.PacketsPerSec = 3313.875
	st.Replay.Done = true
	st.FlowTable = flowtable.Stats{Active: 4021, Inserted: 70001, EvictedIdle: 51002, EvictedCap: 3003, Rekeyed: 17}
	st.DroppedResults = 29
	st.Ingest.BatchSize = 64
	st.Ingest.Batches = 192901
	st.Ingest.IgnoredFrames = 311
	st.Ingest.FilteredFrames = 4127
	st.Ingest.Stalls = 53
	st.Ingest.OversizedHandshakes = 7
	st.Ingest.Migrations = 19
	st.Ingest.EarlyClassified = 211
	st.Ingest.QueueDepths = []int{3, 0, 12, 5}
	st.Ingest.QueueCapacity = 64
	st.Ingest.ResultsBuffered = 881
	st.Ingest.ResultsCapacity = 4096
	st.Latency = []obs.StageStats{
		{Stage: "decode", Count: 12345678, MeanMs: 0.0011, P50Ms: 0.001, P90Ms: 0.0021, P99Ms: 0.0093, MaxMs: 1.75},
		{Stage: "queue_wait"},
		{Stage: "classify", Count: 66998, MeanMs: 0.041, P50Ms: 0.0385, P90Ms: 0.0712, P99Ms: 0.233, MaxMs: 12.5},
	}
	st.Trace.SampleEvery = 100
	st.Trace.Offered = 70002
	st.Trace.Admitted = 700
	st.Trace.Finished = 698
	st.Runtime = obs.RuntimeStats{Goroutines: 23, GOMAXPROCS: 4, HeapAllocBytes: 48234496, HeapSysBytes: 67108864,
		HeapObjects: 210433, NumGC: 87, PauseTotalMs: 31.25, LastPauseMs: 0.5, NextGCBytes: 83886080}
	st.Build = obs.BuildInfo{GoVersion: "go1.24.0", Module: "videoplat", Version: "(devel)", VCSRevision: "0123abcd"}
	st.Config.Shards = 4
	st.ClassifiedFlows = 66012
	st.UnknownFlows = 986
	st.FinalizedFlows = 67998
	st.ByProvider = map[string]uint64{"youtube": 40001, "netflix": 26011}
	st.FlowVerdicts = map[string]uint64{
		"classified": 66012, "abstained": 986, "baseline-only": 4, "no-handshake": 903, "oversized": 7,
		"not-video": 12, "error": 1, "abstained-ech": 40, "abstained-0rtt": 33,
	}
	st.Events = obs.JournalStats{Total: 1290, Retained: 1024, Dropped: 266, ByType: map[string]uint64{
		"model_promote": 2, "model_rollback": 1, "model_swap": 6, "drift_trigger": 4, "drift_rearm": 3,
		"shadow_start": 5, "shadow_verdict": 5, "retrain_error": 9, "eviction_pressure": 1251, "sink_error": 4,
	}}
	st.Rollup.WindowSeconds = 60
	st.Rollup.Sealed = 62
	st.Rollup.SinkError = "disk full"
	st.Rollup.SinkErrors = 13
	st.Rollup.Store = telemetry.StoreStats{
		Tiers:        []telemetry.TierStats{{WidthSeconds: 60, Windows: 1440}, {WidthSeconds: 600, Windows: 144, OpenBucket: true}},
		EvictedCount: 120, EvictedAge: 31, Compactions: 150, LoadedWindows: 96, PersistErrors: 2,
	}
	st.Models.ActiveVersion = "v0007"
	st.Models.Swaps = 6
	st.Models.Versions = 7
	st.Models.Retrainer = &registry.Status{Retrains: 5, Promotions: 3, Rejections: 2}
	return st
}

// exposition is a parsed Prometheus text exposition: each family's kind in
// order of appearance, and each sample's value keyed by its series and
// label set as written.
type exposition struct {
	families []string // "name kind"
	samples  map[string]float64
}

func parseExposition(t *testing.T, text string) exposition {
	t.Helper()
	e := exposition{samples: map[string]float64{}}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			e.families = append(e.families, typ)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, dup := e.samples[line[:i]]; dup {
			t.Errorf("sample %s exposed twice", line[:i])
		}
		e.samples[line[:i]] = v
	}
	return e
}

// jsonPath resolves a dotted path in a decoded JSON document, reading
// numbers and booleans as float64.
func jsonPath(doc any, path string) (float64, bool) {
	for _, seg := range strings.Split(path, ".") {
		switch d := doc.(type) {
		case map[string]any:
			doc = d[seg]
		case []any:
			i, err := strconv.Atoi(seg)
			if err != nil || i >= len(d) {
				return 0, false
			}
			doc = d[i]
		default:
			return 0, false
		}
	}
	switch v := doc.(type) {
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	case bool:
		if v {
			return 1, true
		}
		return 0, true
	case nil:
		return 0, false
	}
	return 0, true // an object or string: present, not one number
}

// TestMetricsGolden renders /metrics from metricsFixture and compares every
// family's kind and order, and every sample's label set and value, with
// testdata/metrics.golden: the exposition the hand-written per-series
// samplers produced for the same value, HELP lines left out. It then
// resolves every row's /stats path in the fixture's JSON encoding: a
// series reading one /stats leaf per sample must expose exactly that
// leaf's value, and a custom sampler's path must exist.
func TestMetricsGolden(t *testing.T) {
	st := metricsFixture()
	got := parseExposition(t, string(appendMetrics(nil, &st)))
	raw, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := parseExposition(t, string(raw))

	if g, w := strings.Join(got.families, "\n"), strings.Join(want.families, "\n"); g != w {
		t.Errorf("families and kinds differ from the golden file:\ngot:\n%s\nwant:\n%s", g, w)
	}
	for key, w := range want.samples {
		if g, ok := got.samples[key]; !ok {
			t.Errorf("missing sample %s (golden %g)", key, w)
		} else if g != w {
			t.Errorf("sample %s = %g, golden %g", key, g, w)
		}
	}
	for key := range got.samples {
		if _, ok := want.samples[key]; !ok {
			t.Errorf("sample %s is not in the golden file", key)
		}
	}

	enc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(enc))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	root := reflect.ValueOf(&st).Elem()
	for i := range metricRegistry {
		m := &metricRegistry[i]
		if m.sample != nil {
			if _, ok := jsonPath(doc, m.Path); !ok {
				t.Errorf("%s: /stats has no %s", m.Name, m.Path)
			}
			continue
		}
		at, _, labeled := strings.Cut(m.Path, "{")
		for _, s := range m.samples(root) {
			key, path := m.Name, m.Path
			if labeled {
				key = m.Name + "{" + s.labels[0] + "=" + strconv.Quote(s.labels[1]) + "}"
				path = at + s.labels[1]
			}
			v, ok := jsonPath(doc, path)
			if !ok && (!labeled || m.labels == nil) {
				t.Errorf("%s: /stats has no %s", key, path)
				continue
			}
			if got.samples[key] != v { // a vocabulary value absent from a /stats map reads as 0
				t.Errorf("%s = %g, /stats %s = %g", key, got.samples[key], path, v)
			}
		}
	}
}

// TestMetricRegistry checks the rows themselves: unique well-formed names,
// a Prometheus kind with the _total suffix on exactly the counters, help
// text that fits one HELP line and one runbook table cell, and a label
// placeholder only at the end of a path.
func TestMetricRegistry(t *testing.T) {
	name := regexp.MustCompile(`^videoplat_[a-z_]+$`)
	path := regexp.MustCompile(`^[a-z_]+(\.[a-z_]+)*(\.?\{[a-z_]+\})?$`)
	seen := map[string]bool{}
	for _, m := range Metrics() {
		if seen[m.Name] {
			t.Errorf("series %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if !name.MatchString(m.Name) {
			t.Errorf("series name %q is malformed", m.Name)
		}
		if (m.Kind == counter) != strings.HasSuffix(m.Name, "_total") || (m.Kind != counter && m.Kind != gauge) {
			t.Errorf("%s: kind %q does not match the name", m.Name, m.Kind)
		}
		if m.Help == "" || strings.ContainsAny(m.Help, "|\\\n") {
			t.Errorf("%s: help %q is empty or has a pipe, backslash or newline", m.Name, m.Help)
		}
		if !path.MatchString(m.Path) {
			t.Errorf("%s: path %q is malformed", m.Name, m.Path)
		}
		if m.sample != nil && (strings.Contains(m.Path, "{") || m.labels != nil) {
			t.Errorf("%s: a custom sampler takes no label placeholder", m.Name)
		}
	}
}
