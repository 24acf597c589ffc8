package pipeline

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/packet"
	"videoplat/internal/tracegen"
)

// adversarialMix renders the tracegen adversarial mix — plain and ECH
// sessions (a management flow plus content flows), QUIC 0-RTT resumptions,
// QUIC connection migrations (mid-stream and mid-handshake), and TCP flows
// whose client side the tap lost after the SYN (no hello ever arrives) — in
// turn, 10 s apart, merged into one frame stream in trace-time order. It
// also returns the longest gap between two frames of one flow, so a caller
// can pick an idle timeout that retires every flow only after its last
// frame. Renders whose 5-tuples collide with an earlier flow's are redrawn,
// so a flow key names exactly one flow.
func adversarialMix(t *testing.T, rounds int) (frames []tracegen.Frame, maxGap time.Duration) {
	t.Helper()
	g := tracegen.New(23)
	provs := fingerprint.AllProviders()
	quicLabels := []string{"android_chrome", "windows_chrome", "android_nativeApp"}
	used := map[packet.FlowKey]bool{}
	const kinds = 5
	for s := 0; s < rounds*kinds; s++ {
		var flows []*tracegen.FlowTrace
		for {
			var err error
			switch label := quicLabels[(s/kinds)%len(quicLabels)]; s % kinds {
			case 0, 1: // plain, ECH
				prov := provs[(s/kinds)%len(provs)]
				flows, err = g.Session("macOS_safari", prov, fingerprint.Options{ECH: s%kinds == 1})
			case 2:
				var ft *tracegen.FlowTrace
				ft, err = g.Flow(label, fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{
					Options: fingerprint.Options{ZeroRTT: true}})
				flows = []*tracegen.FlowTrace{ft}
			case 3:
				var ft *tracegen.FlowTrace
				ft, err = g.Flow(label, fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{
					Options: fingerprint.Options{Migration: true}, MigrateMidHandshake: s/kinds%2 == 1})
				flows = []*tracegen.FlowTrace{ft}
			case 4:
				var ft *tracegen.FlowTrace
				ft, err = g.Flow("windows_chrome", provs[(s/kinds)%len(provs)], fingerprint.TCP, tracegen.FlowSpec{})
				if err == nil {
					kept := ft.Frames[:1] // the client's SYN
					for _, fr := range ft.Frames[1:] {
						if !fr.ClientToServer {
							kept = append(kept, fr)
						}
					}
					ft.Frames = kept
				}
				flows = []*tracegen.FlowTrace{ft}
			}
			if err != nil {
				t.Fatal(err)
			}
			if claimKeys(used, flows) {
				break
			}
		}
		base := time.Duration(s) * 10 * time.Second
		for _, ft := range flows {
			for i, fr := range ft.Frames {
				if i > 0 {
					maxGap = max(maxGap, fr.Offset-ft.Frames[i-1].Offset)
				}
				fr.Offset += base
				frames = append(frames, fr)
			}
		}
	}
	slices.SortStableFunc(frames, func(a, b tracegen.Frame) int { return int(a.Offset - b.Offset) })
	return frames, maxGap
}

// claimKeys records the flows' canonical keys (pre- and post-migration),
// failing without recording anything when one is already taken.
func claimKeys(used map[packet.FlowKey]bool, flows []*tracegen.FlowTrace) bool {
	var keys []packet.FlowKey
	for _, ft := range flows {
		keys = append(keys, ft.Key().Canonical())
		if ft.Migrated {
			keys = append(keys, ft.MigratedKey().Canonical())
		}
	}
	for i, k := range keys {
		if used[k] || slices.Contains(keys[:i], k) {
			return false
		}
	}
	for _, k := range keys {
		used[k] = true
	}
	return true
}

// recordsByKey indexes records by canonical flow key, failing the test when
// a key carries two records. A record still pending when the replay ends is
// finalized as no-handshake, as the eviction hook (and the daemon at
// shutdown) finalizes one.
func recordsByKey(t *testing.T, run string, recs []*FlowRecord) map[packet.FlowKey]FlowRecord {
	t.Helper()
	out := make(map[packet.FlowKey]FlowRecord, len(recs))
	for _, rec := range recs {
		k := rec.Key.Canonical()
		if _, dup := out[k]; dup {
			t.Fatalf("%s: flow %v has two records", run, k)
		}
		r := *rec
		if r.Verdict == VerdictPending {
			r.Verdict = VerdictNoHandshake
		}
		out[k] = r
	}
	return out
}

// TestRecyclingIsInvisible pins that recycling flow state and flow-table
// entries at eviction changes no record. The adversarial mix (ECH, 0-RTT,
// migration) is replayed three times: with no idle timeout, so nothing is
// evicted and the records come from Flows(); with an idle timeout just above
// the longest intra-flow gap, so flows are evicted as soon as they end and
// their states and entries serve later flows; and through a two-shard
// Sharded pipeline with the same timeout, where batched classification
// meets recycling. Every run must report the same record per flow key.
func TestRecyclingIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	frames, maxGap := adversarialMix(t, 12)
	timeout := maxGap + time.Second
	t0 := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)

	ref := NewWithConfig(bank, Config{ProviderHint: tracegen.ProviderOfAddr})
	for _, fr := range frames {
		if _, err := ref.HandlePacket(t0.Add(fr.Offset), fr.Data); err != nil {
			t.Fatal(err)
		}
	}
	want := recordsByKey(t, "no eviction", ref.Flows())
	verdicts := map[Verdict]int{}
	for _, rec := range want {
		verdicts[rec.Verdict]++
	}
	t.Logf("%d flows, verdicts %v, %d migrations, %d early classified, idle timeout %v",
		len(want), verdicts, ref.Migrations(), ref.EarlyClassified(), timeout)
	if verdicts[VerdictClassified] == 0 || verdicts[VerdictAbstainedECH] == 0 || verdicts[VerdictNoHandshake] == 0 ||
		ref.EarlyClassified() == 0 || ref.Migrations() == 0 {
		t.Fatalf("mix lacks a scenario: verdicts %v, %d migrations", verdicts, ref.Migrations())
	}

	var mu sync.Mutex
	var evicted []*FlowRecord
	onEvict := func(rec *FlowRecord, _ flowtable.Reason) {
		mu.Lock()
		evicted = append(evicted, rec)
		mu.Unlock()
	}
	cfg := Config{ProviderHint: tracegen.ProviderOfAddr, IdleTimeout: timeout, OnEvict: onEvict}

	p := NewWithConfig(bank, cfg)
	for _, fr := range frames {
		if _, err := p.HandlePacket(t0.Add(fr.Offset), fr.Data); err != nil {
			t.Fatal(err)
		}
	}
	if len(evicted) < len(want)*3/4 {
		t.Fatalf("only %d of %d flows evicted: recycling barely exercised", len(evicted), len(want))
	}
	compareRecords(t, "recycling pipeline", want, recordsByKey(t, "recycling pipeline", append(evicted, p.Flows()...)))
	// A recycled state carries nothing from its last life but the capacity
	// of its CID slice.
	if len(p.freeStates) == 0 {
		t.Fatal("no flow state was recycled")
	}
	for _, st := range p.freeStates {
		if len(st.cids) != 0 || !reflect.DeepEqual(*st, flowState{cids: st.cids}) {
			t.Fatalf("recycled flow state not cleared: %+v", *st)
		}
	}

	evicted = nil
	s := NewShardedWithConfig(bank, 2, cfg)
	go func() {
		for range s.Results() {
		}
	}()
	for _, fr := range frames {
		s.HandlePacket(t0.Add(fr.Offset), fr.Data)
	}
	s.Close()
	compareRecords(t, "recycling sharded", want, recordsByKey(t, "recycling sharded", append(evicted, s.Flows()...)))
}

func compareRecords(t *testing.T, run string, want, got map[packet.FlowKey]FlowRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d flows, want %d", run, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: flow %v missing", run, k)
			continue
		}
		if g != w {
			t.Errorf("%s: flow %v record differs:\n got %+v\nwant %+v", run, k, g, w)
		}
	}
}

// TestFlowLifecycleAllocs pins the allocations of a flow's whole life on a
// warm Pipeline: a TCP flow from SYN through classification to idle
// eviction, with Config.OnEvict set. Flow state, the flow-table entry, the
// handshake buffer and the CID slice are all recycled from the previous
// flow, so exactly three allocations remain, each a value a caller owns:
//
//   - the SNI string, the one copy out of the recycled hello buffer that
//     the record keeps (tlsproto.ClientHello.ServerName);
//   - the classification record HandlePacket returns;
//   - the record copy Config.OnEvict receives at eviction.
func TestFlowLifecycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	const (
		sniString   = 1
		classifyRec = 1
		evictCopy   = 1
	)
	bank := goldenBank(t)
	ft, err := tracegen.New(9).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{
		Duration: 10 * time.Second, PayloadFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	evictions, classified := 0, 0
	p := NewWithConfig(bank, Config{
		IdleTimeout: time.Minute,
		OnEvict:     func(*FlowRecord, flowtable.Reason) { evictions++ },
	})
	// Each life starts ten trace-minutes after the last, so its first frame
	// sweeps the previous flow (same key) out of the table before the new
	// one is admitted into the recycled state and entry.
	ts := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	life := func() {
		ts = ts.Add(10 * time.Minute)
		for _, fr := range ft.Frames {
			if rec, _ := p.HandlePacket(ts.Add(fr.Offset), fr.Data); rec != nil && rec.Verdict == VerdictClassified {
				classified++
			}
		}
	}
	life()
	life() // warm: one state, entry and handshake buffer have been recycled
	evictions, classified = 0, 0
	const runs = 50
	n := testing.AllocsPerRun(runs, life)
	if classified != runs+1 || evictions != runs+1 { // AllocsPerRun adds a warm-up call
		t.Fatalf("%d classifications and %d evictions over %d lives, want one each per life", classified, evictions, runs+1)
	}
	if want := float64(sniString + classifyRec + evictCopy); n != want {
		t.Errorf("%.1f allocs per flow life, want %.0f (SNI string, classification record, OnEvict copy)", n, want)
	}
}
