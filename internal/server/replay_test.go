package server

import (
	"context"
	"io"
	"math/rand/v2"
	"net/netip"
	"sort"
	"testing"
	"time"

	"videoplat/internal/packet"
	"videoplat/internal/pcap"
	"videoplat/internal/pipeline"
)

// TestMergeByTimeMatchesStableSort pins the SynthSource bugfix contract:
// merging each session's (stably) sorted frames into the already-sorted
// queue must reproduce exactly what the former full-queue sort.SliceStable
// produced — queue-before-session on timestamp ties, session frames in
// append order — so Next() output stays byte-identical for a fixed seed.
func TestMergeByTimeMatchesStableSort(t *testing.T) {
	base := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 50; trial++ {
		// Sorted queue with deliberate duplicate timestamps; OrigLen tags
		// each packet's identity so ordering of ties is observable.
		id := 0
		mk := func(sec int) pcap.Packet {
			id++
			return pcap.Packet{Timestamp: base.Add(time.Duration(sec) * time.Second), OrigLen: id}
		}
		var queue []pcap.Packet
		for sec := 0; len(queue) < trial%17; sec += rng.IntN(2) {
			queue = append(queue, mk(sec))
		}
		var session []pcap.Packet
		for n := 0; n < trial%13; n++ {
			session = append(session, mk(rng.IntN(10)))
		}

		before := func(s []pcap.Packet) func(i, j int) bool {
			return func(i, j int) bool { return s[i].Timestamp.Before(s[j].Timestamp) }
		}
		// Reference: the old implementation — append, then stable-sort all.
		want := append(append([]pcap.Packet{}, queue...), session...)
		sort.SliceStable(want, before(want))

		got := append([]pcap.Packet{}, session...)
		sort.SliceStable(got, before(got))
		got = mergeByTime(append([]pcap.Packet{}, queue...), got)

		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d packets, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].OrigLen != want[i].OrigLen {
				t.Fatalf("trial %d: order diverges at %d: packet %d, want %d",
					trial, i, got[i].OrigLen, want[i].OrigLen)
			}
		}
	}
}

// garbageSource yields frames that cannot carry a flow, then EOF — for
// exercising the ingest drop counters end to end.
type garbageSource struct{ n int }

func (g *garbageSource) Next() (pcap.Packet, error) {
	if g.n <= 0 {
		return pcap.Packet{}, io.EOF
	}
	g.n--
	return pcap.Packet{Timestamp: time.Now(), Data: []byte{0xde, 0xad}}, nil
}

// TestServerReportsIngestCounters runs a replay of undecodable frames and
// checks they surface as ignored_frames (not as shard traffic), with the
// batch counter advancing.
func TestServerReportsIngestCounters(t *testing.T) {
	srv, err := New(&pipeline.Bank{}, &garbageSource{n: 10}, Config{
		Addr: "127.0.0.1:0", Shards: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	select {
	case <-srv.ReplayDone():
	case <-time.After(10 * time.Second):
		t.Fatal("replay did not finish")
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	st := srv.Snapshot()
	if st.Ingest.IgnoredFrames != 10 {
		t.Errorf("ignored_frames = %d, want 10", st.Ingest.IgnoredFrames)
	}
	if st.Replay.Packets != 10 {
		t.Errorf("replay packets = %d, want 10", st.Replay.Packets)
	}
	if st.Ingest.Batches < 3 {
		t.Errorf("batches = %d, want >= 3 for 10 frames at batch size 4", st.Ingest.Batches)
	}
	if st.Ingest.BatchSize != 4 {
		t.Errorf("batch_size = %d, want 4", st.Ingest.BatchSize)
	}
	if st.FlowTable.Inserted != 0 {
		t.Errorf("flow table saw %d inserts from undecodable frames", st.FlowTable.Inserted)
	}
}

// frameSource yields its frames once each, then EOF.
type frameSource struct{ frames [][]byte }

func (f *frameSource) Next() (pcap.Packet, error) {
	if len(f.frames) == 0 {
		return pcap.Packet{}, io.EOF
	}
	data := f.frames[0]
	f.frames = f.frames[1:]
	return pcap.Packet{Timestamp: time.Now(), Data: data, OrigLen: len(data)}, nil
}

// TestFlowsBracketsIPv6Endpoints checks that /flows renders an IPv6
// endpoint as [addr]:port, which stays unambiguous where addr:port is not.
func TestFlowsBracketsIPv6Endpoints(t *testing.T) {
	src, dst := netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2")
	syn := &packet.TCP{SrcPort: 51515, DstPort: 443, Seq: 1, Flags: packet.FlagSYN, Window: 65535}
	ip := &packet.IPv6{Protocol: packet.ProtoTCP, HopLimit: 64, Src: src, Dst: dst}
	frame := (&packet.Ethernet{EtherType: packet.EtherTypeIPv6}).Append(nil, ip.Append(nil, syn.Append(nil, nil, src, dst)))

	srv, err := New(&pipeline.Bank{}, &frameSource{frames: [][]byte{frame}}, Config{Addr: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	defer func() {
		cancel()
		<-runErr
	}()
	<-srv.ReplayDone()

	var flows struct {
		Flows []flowSummary `json:"flows"`
	}
	for deadline := time.Now().Add(10 * time.Second); len(flows.Flows) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the IPv6 flow never reached the flow table")
		}
		getJSON(t, "http://"+srv.Addr()+"/flows", &flows)
	}
	if got := flows.Flows[0]; got.Src != "[2001:db8::1]:51515" || got.Dst != "[2001:db8::2]:443" {
		t.Errorf("/flows endpoints = %s -> %s, want [2001:db8::1]:51515 -> [2001:db8::2]:443", got.Src, got.Dst)
	}
}
