package pipeline

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/tracegen"
)

// goldenBank trains a small bank whose vocabularies deliberately do NOT
// cover the evaluation traffic (different generator seed, plus open-set
// drifted profiles), so unseen tokens exercise the miss-to-zero path.
func goldenBank(t *testing.T) *Bank {
	t.Helper()
	ds, err := tracegen.New(1).LabDataset(0.04, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := TrainBank(ds, TrainConfig{Forest: DefaultForestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

func goldenEvalFlows(t *testing.T) []*tracegen.FlowTrace {
	t.Helper()
	fresh, err := tracegen.New(99).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Open-set flows carry version-drifted profiles: tokens the fitted
	// vocabularies have never seen.
	drifted, err := tracegen.New(42).OpenSetDataset(1)
	if err != nil {
		t.Fatal(err)
	}
	return append(fresh.Flows, drifted.Flows...)
}

// checkBankEquivalence pins, for every evaluation flow and every model in
// the bank, that the compiled fast path is element-identical to
// Encoder.Transform over extracted field values, and that ClassifyHandshake
// reproduces Classify byte for byte.
func checkBankEquivalence(t *testing.T, bank *Bank, flows []*tracegen.FlowTrace, tag string) {
	t.Helper()
	var sc ClassifyScratch
	for fi, ft := range flows {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		v := features.Extract(info)
		for _, obj := range []Objective{PlatformObjective, DeviceObjective, AgentObjective} {
			m := bank.Model(ft.Provider, ft.Transport, obj)
			if m == nil {
				t.Fatalf("%s: no %s model for %s/%s", tag, obj, ft.Provider, ft.Transport)
			}
			ce := m.Compiled()
			if ce == nil {
				t.Fatalf("%s: encoder for %s/%s/%s did not compile", tag, ft.Provider, ft.Transport, obj)
			}
			want := m.Encoder.Transform(v)
			got := ce.Encode(info)
			if !reflect.DeepEqual(want, got) {
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s: flow %d (%s/%s/%s) column %d (%s): compiled %v, reference %v",
							tag, fi, ft.Provider, ft.Transport, obj, i, m.Encoder.Columns()[i].Name, got[i], want[i])
					}
				}
			}
		}

		ref, err := bank.Classify(ft.Provider, ft.Transport, v)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if fast != ref {
			t.Fatalf("%s: flow %d (%s): predictions diverge:\nfast: %+v\nref:  %+v",
				tag, fi, ft.Label, fast, ref)
		}
	}

	checkBatchEquivalence(t, bank, flows, tag)
}

// checkBatchEquivalence groups the evaluation flows per (provider,
// transport) and pins that one ClassifyBatch sweep reproduces every per-flow
// ClassifyHandshake prediction byte for byte — including PlatformMargin,
// which rides the same probability vector.
func checkBatchEquivalence(t *testing.T, bank *Bank, flows []*tracegen.FlowTrace, tag string) {
	t.Helper()
	type group struct {
		infos []*features.HandshakeInfo
		want  []Prediction
	}
	groups := map[entryKey]*group{}
	var sc ClassifyScratch
	for _, ft := range flows {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, &sc)
		if err != nil {
			t.Fatal(err)
		}
		k := entryKey{ft.Provider, ft.Transport}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.infos = append(g.infos, info)
		g.want = append(g.want, want)
	}
	for k, g := range groups {
		if e := bank.entry(k.Provider, k.Transport); e == nil || e.shared == nil || e.cplatform == nil || e.cdevice == nil || e.cagent == nil {
			t.Fatalf("%s: %s/%s entry is not batchable", tag, k.Provider, k.Transport)
		}
		out := make([]Prediction, len(g.infos))
		if err := bank.ClassifyBatch(k.Provider, k.Transport, g.infos, &sc, out); err != nil {
			t.Fatal(err)
		}
		for i, want := range g.want {
			if out[i] != want {
				t.Fatalf("%s: %s/%s batch flow %d diverges:\nbatch:    %+v\nper-flow: %+v",
					tag, k.Provider, k.Transport, i, out[i], want)
			}
		}
	}
}

func TestCompiledBankGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	flows := goldenEvalFlows(t)
	checkBankEquivalence(t, bank, flows, "fresh")

	// The three per-objective encoders are fitted on the same samples, so
	// the serving path must be sharing one compiled encode pass.
	for _, prov := range fingerprint.AllProviders() {
		for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
			e := bank.entry(prov, tr)
			if e == nil {
				continue
			}
			if e.shared == nil {
				t.Errorf("%s/%s: objectives do not share an encode pass", prov, tr)
			}
		}
	}

	// The contract must survive deployment: gob round-trip the bank (the
	// vptrain -> registry -> vpserve path) and re-pin everything.
	blob, err := bank.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Bank{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	checkBankEquivalence(t, restored, flows, "gob-roundtrip")

	// And the two banks agree with each other.
	for _, ft := range flows[:20] {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		a, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.ClassifyHandshake(ft.Provider, ft.Transport, info, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("restored bank diverges on %s: %+v vs %+v", ft.Label, a, b)
		}
	}
}

// TestBankReloadRebuildsServingIndex pins that UnmarshalBinary into a Bank
// that has already classified (and so has a built entry index) rebuilds the
// index around the freshly decoded models instead of serving stale ones.
func TestBankReloadRebuildsServingIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	blob, err := goldenBank(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := &Bank{}
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	ft, err := tracegen.New(7).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ExtractTrace(ft)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ClassifyHandshake(fingerprint.YouTube, fingerprint.TCP, info, nil); err != nil {
		t.Fatal(err) // serves from the index built at load
	}
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err) // in-place reload: new *Model instances
	}
	if _, err := b.ClassifyHandshake(fingerprint.YouTube, fingerprint.TCP, info, nil); err != nil {
		t.Fatal(err)
	}
	e := b.entry(fingerprint.YouTube, fingerprint.TCP)
	if e == nil || e.platform != b.Model(fingerprint.YouTube, fingerprint.TCP, PlatformObjective) {
		t.Fatal("serving index still points at the pre-reload models")
	}
}

// TestBankReloadRebuildsCompiledForests pins that an in-place reload (the
// hot-swap UnmarshalBinary path) rebuilds the compiled serving forests
// around the freshly decoded models: the entry's flat-array forests must
// belong to the post-reload models, not the pre-reload ones.
func TestBankReloadRebuildsCompiledForests(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	blob, err := goldenBank(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := &Bank{}
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	old := b.entry(fingerprint.YouTube, fingerprint.TCP)
	if old == nil || old.shared == nil || old.cplatform == nil || old.cdevice == nil || old.cagent == nil {
		t.Fatal("pre-reload entry did not compile")
	}
	oldModel := b.Model(fingerprint.YouTube, fingerprint.TCP, PlatformObjective)
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err) // in-place reload: new *Model instances
	}
	e := b.entry(fingerprint.YouTube, fingerprint.TCP)
	if e == nil || e.shared == nil || e.cplatform == nil || e.cdevice == nil || e.cagent == nil {
		t.Fatal("post-reload entry did not compile")
	}
	m := b.Model(fingerprint.YouTube, fingerprint.TCP, PlatformObjective)
	if m == oldModel {
		t.Fatal("reload did not replace the models")
	}
	if e.cplatform != m.CompiledForest() {
		t.Error("serving index still carries the pre-reload compiled platform forest")
	}
	if e.cplatform == old.cplatform {
		t.Error("compiled platform forest was not rebuilt for the reloaded model")
	}
	fp := b.CompiledFootprint()
	if fp.CompiledModels != fp.Models || fp.Nodes == 0 || fp.Bytes == 0 {
		t.Errorf("post-reload footprint looks wrong: %+v", fp)
	}
}

// TestUnmarshalRejectsUncompilableBank pins that a bank the compiled serving
// path cannot serve is refused at load, with an error naming the offending
// model: one with an empty forest, and one whose device encoder was fitted
// on a different attribute subset from its platform encoder. A refused
// in-place reload must leave the receiver classifying with its previous
// models.
func TestUnmarshalRejectsUncompilableBank(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	key := bankKey{fingerprint.YouTube, fingerprint.TCP, DeviceObjective}
	name := fmt.Sprintf("%s/%s/%s", key.Provider, key.Transport, key.Objective)
	// withDevice serializes bank with the YouTube/TCP device model altered.
	withDevice := func(alter func(m *Model)) []byte {
		t.Helper()
		m := *bank.models[key]
		alter(&m)
		models := maps.Clone(bank.models)
		models[key] = &m
		blob, err := (&Bank{models: models, Config: bank.Config}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	ft, err := tracegen.New(7).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ExtractTrace(ft)
	if err != nil {
		t.Fatal(err)
	}
	subset, err := features.NewEncoder(false, []string{features.ForTransport(false)[0].Label})
	if err != nil {
		t.Fatal(err)
	}
	subset.Fit([]*features.FieldValues{features.Extract(info)})

	bad := map[string][]byte{
		"empty forest":   withDevice(func(m *Model) { m.Forest = &ml.RandomForest{} }),
		"subset encoder": withDevice(func(m *Model) { m.Encoder = subset }),
	}

	good, err := bank.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := &Bank{}
	if err := b.UnmarshalBinary(good); err != nil {
		t.Fatal(err)
	}
	before := b.Model(key.Provider, key.Transport, key.Objective)
	want, err := b.ClassifyHandshake(fingerprint.YouTube, fingerprint.TCP, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tc, blob := range bad {
		err := (&Bank{}).UnmarshalBinary(blob)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: UnmarshalBinary error = %v, want one naming %s", tc, err, name)
		}
		if err := b.UnmarshalBinary(blob); err == nil {
			t.Fatalf("%s: in-place reload accepted", tc)
		}
		if b.Model(key.Provider, key.Transport, key.Objective) != before {
			t.Errorf("%s: refused reload replaced the receiver's models", tc)
		}
		got, err := b.ClassifyHandshake(fingerprint.YouTube, fingerprint.TCP, info, nil)
		if err != nil || got != want {
			t.Errorf("%s: after refused reload: %+v, %v; want %+v", tc, got, err, want)
		}
	}
}

// TestClassifyBatchZeroAlloc pins the batched serving budget: with warm
// scratch matrices, a whole-group encode+classify sweep allocates nothing.
func TestClassifyBatchZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
		infos := make([]*features.HandshakeInfo, 0, 8)
		for i := 0; i < 8; i++ {
			ft, err := tracegen.New(uint64(20+i)).Flow("windows_chrome", fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 1})
			if err != nil {
				t.Fatal(err)
			}
			info, err := ExtractTrace(ft)
			if err != nil {
				t.Fatal(err)
			}
			infos = append(infos, info)
		}
		var sc ClassifyScratch
		out := make([]Prediction, len(infos))
		if err := bank.ClassifyBatch(fingerprint.YouTube, tr, infos, &sc, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := bank.ClassifyBatch(fingerprint.YouTube, tr, infos, &sc, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ClassifyBatch allocates %.1f per call, want 0", tr, allocs)
		}
	}
}

// TestClassifyHandshakeZeroAlloc pins the serving-path budget: with a warm
// per-worker scratch, encode+predict allocates nothing.
func TestClassifyHandshakeZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
		label := "windows_chrome"
		ft, err := tracegen.New(7).Flow(label, fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		var sc ClassifyScratch
		if _, err := bank.ClassifyHandshake(ft.Provider, tr, info, &sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := bank.ClassifyHandshake(ft.Provider, tr, info, &sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ClassifyHandshake allocates %.1f per call, want 0", tr, allocs)
		}
	}
}

// TestClassifyPartialZeroAlloc pins the degraded serving path: a partial
// HandshakeInfo with no ClientHello — the input ECH and 0-RTT flows present
// to the early-classification gate — must classify with zero allocations,
// since escalateEarly runs once per opaque frame on the hot path.
func TestClassifyPartialZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	info := &features.HandshakeInfo{QUIC: true, TTL: 52, InitPacketSize: 1252}
	var sc ClassifyScratch
	if _, err := bank.ClassifyHandshake(fingerprint.YouTube, fingerprint.QUIC, info, &sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := bank.ClassifyHandshake(fingerprint.YouTube, fingerprint.QUIC, info, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("partial-info ClassifyHandshake allocates %.1f per call, want 0", allocs)
	}
}
