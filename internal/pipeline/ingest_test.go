package pipeline

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/obs"
	"videoplat/internal/packet"
	"videoplat/internal/tracegen"
)

// tcpFrame builds a minimal decodable Ethernet/IPv4/TCP frame for the given
// ports — enough for the ingest path to extract a 5-tuple and route it.
func tcpFrame(t *testing.T, srcPort, dstPort uint16) []byte {
	t.Helper()
	src := netip.MustParseAddr("10.1.2.3")
	dst := netip.MustParseAddr("93.184.216.34")
	tcp := packet.TCP{SrcPort: srcPort, DstPort: dstPort, Flags: packet.FlagACK, Window: 64240}
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: src, Dst: dst}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, tcp.Append(nil, nil, src, dst)))
}

// icmpFrame builds a decodable IPv4 frame that is neither TCP nor UDP.
func icmpFrame(t *testing.T) []byte {
	t.Helper()
	ip := packet.IPv4{TTL: 64, Protocol: 1, // ICMP
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, []byte{8, 0, 0, 0}))
}

// TestIngestDropsUndecodableFrames pins the satellite bugfix: frames that
// fail to parse or are non-TCP/UDP used to land on shard 0 (idx=0
// fallback), skewing its load and wasting a copy + channel send each. They
// must now be dropped at ingest, counted in Ignored, and reach no shard.
func TestIngestDropsUndecodableFrames(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	s := NewSharded(bank, 4)
	now := time.Now()

	garbage := [][]byte{
		{1, 2, 3},        // truncated ethernet
		make([]byte, 14), // ethernet with unsupported EtherType 0 — no flow
		icmpFrame(t),     // decodes, but no TCP/UDP 5-tuple
	}
	for _, fr := range garbage {
		s.HandlePacket(now, fr)
	}
	s.HandlePacketBatch([]IngestPacket{
		{TS: now, Data: garbage[0]},
		{TS: now, Data: icmpFrame(t)},
	})

	// Decodable flows off port 443 are dropped by the ingest-time video
	// filter and counted separately from undecodable frames.
	s.HandlePacket(now, tcpFrame(t, 51000, 8080))
	s.HandlePacketBatch([]IngestPacket{{TS: now, Data: tcpFrame(t, 51001, 22)}})

	// Decodable TCP frames across many distinct flows: these must spread
	// over the shards rather than pile onto shard 0.
	const flows = 64
	for i := 0; i < flows; i++ {
		s.HandlePacket(now, tcpFrame(t, uint16(10000+i), 443))
	}
	s.Close()

	if got := s.Ignored(); got != 5 {
		t.Errorf("Ignored() = %d, want 5", got)
	}
	if got := s.Filtered(); got != 2 {
		t.Errorf("Filtered() = %d, want 2", got)
	}
	var total int
	for i, sh := range s.shards {
		if sh.p.Packets == 0 {
			t.Errorf("shard %d saw no packets: undecodable-drop must not starve shards", i)
		}
		total += sh.p.Packets
	}
	if total != flows {
		t.Errorf("shards saw %d packets, want %d (ignored frames must reach none)", total, flows)
	}
	if s.shards[0].p.Packets == flows {
		t.Error("all packets on shard 0: ingest still skews")
	}
}

// TestBatchedMatchesSinglePacket is the parse-once equivalence check: the
// batched entry point must produce exactly the flows and classifications of
// the per-packet path — same SNIs, predictions, byte and packet telemetry.
func TestBatchedMatchesSinglePacket(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)

	g := tracegen.New(77)
	var all []*tracegen.FlowTrace
	specs := []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
	}{
		{"windows_chrome", fingerprint.YouTube, fingerprint.QUIC},
		{"windows_firefox", fingerprint.Netflix, fingerprint.TCP},
		{"iOS_nativeApp", fingerprint.Disney, fingerprint.TCP},
		{"androidTV_nativeApp", fingerprint.Amazon, fingerprint.TCP},
		{"macOS_safari", fingerprint.Amazon, fingerprint.TCP},
		{"ps5_nativeApp", fingerprint.Netflix, fingerprint.TCP},
	}
	for _, sp := range specs {
		ft, err := g.Flow(sp.label, sp.prov, sp.tr, tracegen.FlowSpec{PayloadFrames: 3})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ft)
	}
	// Interleave packets across flows, as a tap would deliver them.
	var pkts []IngestPacket
	for j := 0; ; j++ {
		any := false
		for _, ft := range all {
			if j < len(ft.Frames) {
				pkts = append(pkts, IngestPacket{TS: ft.Start.Add(ft.Frames[j].Offset), Data: ft.Frames[j].Data})
				any = true
			}
		}
		if !any {
			break
		}
	}

	type summary struct {
		platform   string
		status     Status
		classified bool
		bytesDown  int64
		bytesUp    int64
		pktsDown   int
		pktsUp     int
	}
	run := func(batchSize int) map[string]summary {
		s := NewSharded(bank, 4)
		go func() {
			for range s.Results() {
			}
		}()
		if batchSize <= 1 {
			for _, p := range pkts {
				s.HandlePacket(p.TS, p.Data)
			}
		} else {
			for off := 0; off < len(pkts); off += batchSize {
				end := min(off+batchSize, len(pkts))
				s.HandlePacketBatch(pkts[off:end])
			}
		}
		s.Close()
		out := map[string]summary{}
		for _, rec := range s.Flows() {
			out[rec.SNI] = summary{
				platform:   rec.Prediction.Platform,
				status:     rec.Prediction.Status,
				classified: rec.Classified,
				bytesDown:  rec.BytesDown,
				bytesUp:    rec.BytesUp,
				pktsDown:   rec.PacketsDown,
				pktsUp:     rec.PacketsUp,
			}
		}
		return out
	}

	single := run(1)
	if len(single) != len(specs) {
		t.Fatalf("single-packet path tracked %d flows, want %d", len(single), len(specs))
	}
	for _, batchSize := range []int{7, 64, len(pkts)} {
		batched := run(batchSize)
		if len(batched) != len(single) {
			t.Fatalf("batch=%d tracked %d flows, single tracked %d", batchSize, len(batched), len(single))
		}
		for sni, want := range single {
			if got, ok := batched[sni]; !ok || got != want {
				t.Errorf("batch=%d flow %s = %+v, single-packet = %+v", batchSize, sni, got, want)
			}
		}
	}
}

// TestResultsDropUnderStalledConsumer pins the revised best-effort
// contract: the results buffer is configurable (and shard-count-scaled by
// default), and a consumer that stops draining costs exactly the overflow,
// counted in Dropped, while Close still never deadlocks.
func TestResultsDropUnderStalledConsumer(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)

	const buffer = 2
	s := NewShardedWithConfig(bank, 1, Config{ResultsBuffer: buffer})
	g := tracegen.New(99)
	labels := []string{"windows_chrome", "windows_firefox", "iOS_nativeApp",
		"macOS_safari", "ps5_nativeApp", "androidTV_nativeApp"}
	for i, label := range labels {
		prov := fingerprint.AllProviders()[i%4]
		if !fingerprint.SupportMatrix(label, prov) {
			prov = fingerprint.Netflix
		}
		tr := fingerprint.TCP
		if !fingerprint.SupportsTCP(label, prov) {
			tr = fingerprint.QUIC
		}
		ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{PayloadFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range ft.Frames {
			s.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
		}
	}
	s.Close() // nobody drained Results; Close must not deadlock

	buffered := len(s.results)
	if buffered != buffer {
		t.Errorf("buffered results = %d, want full buffer %d", buffered, buffer)
	}
	want := uint64(len(labels) - buffer)
	if got := s.Dropped(); got != want {
		t.Errorf("Dropped() = %d, want %d (%d flows, buffer %d)", got, want, len(labels), buffer)
	}
	if got := s.IngestStats(); got.DroppedResults != s.Dropped() || got.Ignored != 0 {
		t.Errorf("IngestStats() = %+v inconsistent with counters", got)
	}
}

// TestShardedDefaultQueueDepths pins the shard-count-scaled defaults.
func TestShardedDefaultQueueDepths(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	for _, n := range []int{1, 4} {
		s := NewSharded(bank, n)
		if got, want := cap(s.results), DefaultResultsBufferPerShard*n; got != want {
			t.Errorf("n=%d: results buffer = %d, want %d", n, got, want)
		}
		for _, sh := range s.shards {
			if got := cap(sh.in); got != DefaultShardQueueDepth {
				t.Errorf("n=%d: shard inbox depth = %d, want %d", n, got, DefaultShardQueueDepth)
			}
		}
		s.Close()
	}
	s := NewShardedWithConfig(bank, 2, Config{ShardQueueDepth: 8, ResultsBuffer: 5})
	if cap(s.results) != 5 || cap(s.shards[0].in) != 8 {
		t.Errorf("explicit depths not honoured: results=%d inbox=%d",
			cap(s.results), cap(s.shards[0].in))
	}
	s.Close()
}

// TestIngestStallCounter drives more batches than a one-slot inbox can hold
// so ingest must block at least once, and the stall is counted.
func TestIngestStallCounter(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	s := NewShardedWithConfig(bank, 1, Config{ShardQueueDepth: 1})
	now := time.Now()
	for i := 0; i < 2000; i++ {
		s.HandlePacket(now, tcpFrame(t, uint16(1000+i%512), 443))
	}
	s.Close()
	if s.Stalls() == 0 {
		t.Error("no stalls recorded while flooding a depth-1 inbox")
	}
}

// TestIngestZeroAlloc pins the steady-state ingest path at 0 allocations:
// frames of 256 established (done) flows through a warm Sharded in 64-frame
// HandlePacketBatch calls, at 1 and 4 shards, with the observer and tracer
// off and then on. Spans are admitted only at flow creation, which the
// warm-up performs, so instrumentation must ride the path for free.
func TestIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const flows, batchSize = 256, 64
	src := netip.MustParseAddr("10.1.2.3")
	dst := netip.MustParseAddr("93.184.216.34")
	now := time.Now()
	pkts := make([]IngestPacket, flows)
	for i := range pkts {
		tcp := packet.TCP{SrcPort: uint16(10000 + i), DstPort: 443, Flags: packet.FlagACK, Window: 64240}
		ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: src, Dst: dst}
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		pkts[i] = IngestPacket{TS: now, Data: eth.Append(nil, ip.Append(nil, tcp.Append(nil, make([]byte, 1200), src, dst)))}
	}
	bank := &Bank{models: map[bankKey]*Model{}}
	for _, instrumented := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			var cfg Config
			if instrumented {
				cfg.Observer = obs.NewPipelineObserver()
				cfg.Tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 64})
			}
			s := NewShardedWithConfig(bank, shards, cfg)
			go func() {
				for range s.Results() {
				}
			}()
			// pass feeds every flow once, then waits until the workers have
			// taken every batch and returned it to the pool. AllocsPerRun
			// runs at GOMAXPROCS(1), so without the wait the ingest
			// goroutine would fill every inbox slot with fresh batches
			// before any worker ran.
			pass := func() {
				for off := 0; off < len(pkts); off += batchSize {
					s.HandlePacketBatch(pkts[off:min(off+batchSize, len(pkts))])
				}
				for _, sh := range s.shards {
					for len(sh.in) > 0 {
						runtime.Gosched()
					}
				}
				runtime.Gosched()
			}
			for i := 0; i < 12; i++ {
				pass() // mark every flow done, warm the pools
			}
			allocs := testing.AllocsPerRun(20, pass)
			s.Close()
			if allocs != 0 {
				t.Errorf("shards=%d instrumented=%v: %.2f allocs per %d-frame pass, want 0",
					shards, instrumented, allocs, flows)
			}
		}
	}
}
