package pipeline

import (
	"testing"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/tracegen"
)

// TestVerdictTaxonomy pins the verdict vocabulary: stable strings, no
// duplicates, and the zero value reading as pending.
func TestVerdictTaxonomy(t *testing.T) {
	var zero Verdict
	if zero.String() != "pending" {
		t.Errorf("zero verdict = %q, want pending", zero.String())
	}
	names := VerdictNames()
	if len(names) != NumVerdicts {
		t.Fatalf("VerdictNames length = %d, want %d", len(names), NumVerdicts)
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name == "" {
			t.Errorf("verdict %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate verdict name %q", name)
		}
		seen[name] = true
		if got := Verdict(i).String(); got != name {
			t.Errorf("Verdict(%d).String() = %q, VerdictNames()[%d] = %q", i, got, i, name)
		}
	}
	for v, want := range map[Verdict]string{
		VerdictClassified:  "classified",
		VerdictAbstained:   "abstained",
		VerdictNoHandshake: "no-handshake",
		VerdictError:       "error",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

// TestPredictionMarginBounds checks the decisiveness margin both
// classification paths stamp: never negative, never above the top
// probability, and equal to it when only one class holds probability mass.
func TestPredictionMarginBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, ds := trainSmallBank(t, 2, 0.04)
	for _, ft := range ds.Flows[:60] {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := bank.Classify(ft.Provider, ft.Transport, features.Extract(info))
		if err != nil {
			t.Fatal(err)
		}
		if pred.PlatformMargin < 0 || pred.PlatformMargin > pred.PlatformConf+1e-12 {
			t.Fatalf("margin %v outside [0, conf=%v]", pred.PlatformMargin, pred.PlatformConf)
		}
	}
}

// TestPipelineAssignsVerdicts runs full flows through the streaming pipeline
// and checks every finalized record carries a verdict consistent with its
// classification outcome.
func TestPipelineAssignsVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 4, 0.03)
	p := New(bank)

	g := tracegen.New(99)
	for _, spec := range []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
	}{
		{"windows_chrome", fingerprint.YouTube, fingerprint.QUIC},
		{"iOS_nativeApp", fingerprint.Disney, fingerprint.TCP},
		{"ps5_nativeApp", fingerprint.Amazon, fingerprint.TCP},
	} {
		ft, err := g.Flow(spec.label, spec.prov, spec.tr, tracegen.FlowSpec{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range ft.Frames {
			if _, err := p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data); err != nil {
				t.Fatal(err)
			}
		}
	}

	final := p.Flows()
	if len(final) != 3 {
		t.Fatalf("flow records = %d, want 3", len(final))
	}
	for _, rec := range final {
		switch {
		case rec.Classified && rec.Prediction.Status != Unknown:
			if rec.Verdict != VerdictClassified {
				t.Errorf("%s: classified flow verdict = %s", rec.SNI, rec.Verdict)
			}
			if rec.Prediction.PlatformMargin <= 0 {
				t.Errorf("%s: classified flow margin = %v, want > 0", rec.SNI, rec.Prediction.PlatformMargin)
			}
		case rec.Classified:
			if rec.Verdict != VerdictAbstained {
				t.Errorf("%s: abstained flow verdict = %s", rec.SNI, rec.Verdict)
			}
		default:
			if rec.Verdict == VerdictPending || rec.Verdict == VerdictClassified {
				t.Errorf("%s: unclassified flow verdict = %s", rec.SNI, rec.Verdict)
			}
		}
	}
}

// TestClassifyErrorVerdict pins the classify-error path: a YouTube TCP flow
// whose bank has no models for it surfaces the bank's error exactly once
// from a plain Pipeline's HandlePacket, and the flow is left with
// VerdictError both there and in a sharded pipeline.
func TestClassifyErrorVerdict(t *testing.T) {
	ft, err := tracegen.New(11).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	bank := &Bank{models: map[bankKey]*Model{}}

	p := New(bank)
	errs := 0
	for _, fr := range ft.Frames {
		rec, err := p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
		if rec != nil {
			t.Errorf("HandlePacket returned a record for an unclassifiable flow: %+v", rec)
		}
		if err != nil {
			errs++
		}
	}
	if errs != 1 {
		t.Errorf("HandlePacket returned %d errors, want exactly 1", errs)
	}
	if flows := p.Flows(); len(flows) != 1 || flows[0].Verdict != VerdictError {
		t.Errorf("plain pipeline flows = %+v, want one flow with verdict %s", flows, VerdictError)
	}

	s := NewShardedWithConfig(bank, 2, Config{})
	defer s.Close()
	for _, fr := range ft.Frames {
		s.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
	}
	if flows := s.SnapshotFlows(); len(flows) != 1 || flows[0].Verdict != VerdictError {
		t.Errorf("sharded flows = %+v, want one flow with verdict %s", flows, VerdictError)
	}
}
