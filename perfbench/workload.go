package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"
	"sort"
	"syscall"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/pcap"
	"videoplat/internal/quicproto"
	"videoplat/internal/tracegen"
)

// workloadSpec names one traffic mix and records why the benchmark has it.
type workloadSpec struct {
	name  string
	why   string
	build func(seed uint64) (*workload, error)
}

var workloadSpecs = []workloadSpec{
	{
		name: "handshake-churn",
		why:  "every flow is a new handshake, so assembly, QUIC Initial decrypt, ClientHello parse, encode+predict and rollup do most of the work",
		build: func(seed uint64) (*workload, error) {
			return renderSessions(seed, 0)
		},
	},
	{
		name:  "established",
		why:   "thousands of concurrent long-lived flows with handshakes under 3% of frames: decode, ingest routing, shard queues and flow-table lookups do the work",
		build: renderEstablished,
	},
	{
		name: "adversarial-mix",
		why:  "half the sessions use ECH, QUIC 0-RTT or migration: n=1 early classification, abstain verdicts, CID routing and flow re-keying",
		build: func(seed uint64) (*workload, error) {
			return renderSessions(seed, 0.5)
		},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, ws := range workloadSpecs {
		if ws.name == name {
			return ws, true
		}
	}
	return workloadSpec{}, false
}

const (
	// sessionsPerPass and sessionPasses size the session workloads: one
	// pass of 2,000 sessions (about 6,000 flows and 53,000 frames), replayed
	// twice per daemon run, the second copy shifted forward in trace time.
	// Short runs give many samples for the medians.
	sessionsPerPass = 2000
	sessionPasses   = 2
	// sessionGap spaces session starts in trace time, as cmd/vpgen does.
	sessionGap = 30 * time.Second

	establishedFlows = 5000
	// establishedHandshakeShare caps the handshake frames' share of the
	// established workload; the rest is steady-state payload and ACKs.
	establishedHandshakeShare = 0.025
	establishedFrameGap       = 10 * time.Microsecond
)

var traceStart = time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)

// frameRef locates one frame in the workload's arena.
type frameRef struct {
	ts   int64 // trace time in unix ns (relative to the round start for steady frames)
	off  uint32
	n    uint32
	flow int32 // index into workload.flows
	c2s  bool
}

// flowTruth is the ground truth of one rendered flow.
type flowTruth struct {
	label string
	prov  fingerprint.Provider
	tr    fingerprint.Transport
	canon packet.FlowKey
	// server is the flow's server address, the provider hint's input.
	server netip.Addr
}

// workload is a rendered traffic mix. Frame bytes live in an arena mapped
// outside the Go heap, standing in for a capture ring: the daemon's GC sees
// only its own allocations, not the benchmark's input.
type workload struct {
	arena []byte
	flows []flowTruth

	// frames is one pass in trace-time order. passes copies of it are
	// replayed back to back, copy p shifted by p*shift.
	frames []frameRef
	passes int
	shift  int64

	// steady is one round of the established workload's steady state
	// (timestamps relative to the round start), replayed rounds times
	// after the handshakes.
	steady     []frameRef
	rounds     int
	roundStart int64
	roundLen   int64
}

// Len is the number of frames one replay offers.
func (w *workload) Len() int { return w.passes*len(w.frames) + w.rounds*len(w.steady) }

// FlowCount is the number of flows one replay creates.
func (w *workload) FlowCount() int { return w.passes * len(w.flows) }

// At returns frame i of the replay: its trace time and bytes.
func (w *workload) At(i int) (int64, []byte) {
	n := w.passes * len(w.frames)
	if i < n {
		f := w.frames[i%len(w.frames)]
		return f.ts + int64(i/len(w.frames))*w.shift, w.arena[f.off : f.off+f.n]
	}
	i -= n
	f := w.steady[i%len(w.steady)]
	return w.roundStart + int64(i/len(w.steady))*w.roundLen + f.ts, w.arena[f.off : f.off+f.n]
}

// flowFrames lists, per flow, the indexes of its frames: into frames, then
// (offset by len(frames)) into steady.
func (w *workload) flowFrames() [][]int32 {
	out := make([][]int32, len(w.flows))
	for i, f := range w.frames {
		out[f.flow] = append(out[f.flow], int32(i))
	}
	for i, f := range w.steady {
		out[f.flow] = append(out[f.flow], int32(len(w.frames)+i))
	}
	return out
}

// ref returns the frame at a flowFrames index.
func (w *workload) ref(i int32) frameRef {
	if int(i) < len(w.frames) {
		return w.frames[i]
	}
	return w.steady[int(i)-len(w.frames)]
}

func (w *workload) bytesOf(f frameRef) []byte { return w.arena[f.off : f.off+f.n] }

// builder accumulates rendered frames on the heap before they move into
// the off-heap arena.
type builder struct {
	flows  []flowTruth
	frames []frameRef
	steady []frameRef
	data   [][]byte // parallel to frames, then steady
	keys   map[packet.FlowKey]bool
}

func newBuilder() *builder { return &builder{keys: map[packet.FlowKey]bool{}} }

// claim reserves the canonical keys of a set of flows, reporting false
// (and reserving nothing) if any is already used in this pass. A tap would
// see two flows on one 5-tuple as one flow, so the workload keeps them
// apart to keep its flow count exact.
func (b *builder) claim(fts []*tracegen.FlowTrace) bool {
	var keys []packet.FlowKey
	for _, ft := range fts {
		keys = append(keys, ft.Key().Canonical())
		if ft.Migrated {
			keys = append(keys, ft.MigratedKey().Canonical())
		}
	}
	seen := map[packet.FlowKey]bool{}
	for _, k := range keys {
		if b.keys[k] || seen[k] {
			return false
		}
		seen[k] = true
	}
	for _, k := range keys {
		b.keys[k] = true
	}
	return true
}

func (b *builder) addFlow(ft *tracegen.FlowTrace) int32 {
	b.flows = append(b.flows, flowTruth{
		label: ft.Label, prov: ft.Provider, tr: ft.Transport,
		canon: ft.Key().Canonical(), server: ft.ServerAddr,
	})
	return int32(len(b.flows) - 1)
}

// finish sorts the pass by trace time (stable, so equal timestamps keep
// render order) and copies every frame into the arena.
func (b *builder) finish() (*workload, error) {
	type pending struct {
		ref  frameRef
		data []byte
	}
	pass := make([]pending, len(b.frames))
	for i := range b.frames {
		pass[i] = pending{b.frames[i], b.data[i]}
	}
	sort.SliceStable(pass, func(i, j int) bool { return pass[i].ref.ts < pass[j].ref.ts })
	size := 0
	for _, d := range b.data {
		size += len(d)
	}
	arena, err := syscall.Mmap(-1, 0, max(size, 1), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping frame arena: %w", err)
	}
	w := &workload{arena: arena, flows: b.flows, passes: 1}
	off := 0
	place := func(ref frameRef, data []byte) frameRef {
		ref.off, ref.n = uint32(off), uint32(len(data))
		off += copy(arena[off:], data)
		return ref
	}
	for _, p := range pass {
		w.frames = append(w.frames, place(p.ref, p.data))
	}
	for i, ref := range b.steady {
		w.steady = append(w.steady, place(ref, b.data[len(b.frames)+i]))
	}
	return w, nil
}

// supportedLabels lists the platforms that stream from prov.
func supportedLabels(prov fingerprint.Provider) []string {
	var labels []string
	for _, l := range fingerprint.AllPlatformLabels() {
		if fingerprint.SupportMatrix(l, prov) {
			labels = append(labels, l)
		}
	}
	return labels
}

// renderSessions renders the session workloads the way server.SynthSource
// does: sessions 30 s apart in trace time, a random provider and a platform
// it supports, and with probability adversarial one of the ECH, 0-RTT and
// migration scenarios. The pass is then replayed sessionPasses times.
func renderSessions(seed uint64, adversarial float64) (*workload, error) {
	g := tracegen.New(seed)
	rng := rand.New(rand.NewPCG(seed, 2))
	b := newBuilder()
	provs := fingerprint.AllProviders()
	for s := 0; s < sessionsPerPass; s++ {
		prov := provs[rng.IntN(len(provs))]
		labels := supportedLabels(prov)
		label := labels[rng.IntN(len(labels))]
		var opts fingerprint.Options
		if adversarial > 0 && rng.Float64() < adversarial {
			switch rng.IntN(3) {
			case 0:
				opts.ECH = true
			case 1:
				opts.ZeroRTT = true
			default:
				opts.Migration = true
			}
		}
		var flows []*tracegen.FlowTrace
		for {
			var err error
			if flows, err = g.Session(label, prov, opts); err != nil {
				return nil, fmt.Errorf("rendering session: %w", err)
			}
			if b.claim(flows) {
				break
			}
		}
		base := traceStart.Add(time.Duration(s) * sessionGap).UnixNano()
		for _, ft := range flows {
			fi := b.addFlow(ft)
			for _, fr := range ft.Frames {
				b.frames = append(b.frames, frameRef{ts: base + int64(fr.Offset), flow: fi, c2s: fr.ClientToServer})
				b.data = append(b.data, fr.Data)
			}
		}
	}
	w, err := b.finish()
	if err != nil {
		return nil, err
	}
	// Shift each pass past the previous one's last frame by more than the
	// daemon's idle timeout, so a pass starts on an empty flow table and
	// creates its flows again.
	length := time.Duration(w.frames[len(w.frames)-1].ts - w.frames[0].ts)
	w.passes = sessionPasses
	w.shift = int64((length + 5*time.Minute).Truncate(time.Minute))
	return w, nil
}

// renderEstablished renders establishedFlows concurrent flows across all
// four providers, about half QUIC where the platform supports it, whose
// handshakes start 1 ms apart. Then it replays rounds in which every flow
// carries one downstream payload frame (1.2-1.4 KB, as tracegen renders
// it) and one minimum-size upstream ACK, frames 10 µs apart, so no flow
// idles out and the handshakes stay under 3% of frames.
func renderEstablished(seed uint64) (*workload, error) {
	g := tracegen.New(seed)
	rng := rand.New(rand.NewPCG(seed, 3))
	b := newBuilder()
	provs := fingerprint.AllProviders()
	var steadyData [][]byte
	for i := 0; len(b.flows) < establishedFlows; i++ {
		prov := provs[i%len(provs)]
		labels := supportedLabels(prov)
		label := labels[rng.IntN(len(labels))]
		tr := fingerprint.TCP
		if fingerprint.SupportsQUIC(label, prov) && (!fingerprint.SupportsTCP(label, prov) || rng.IntN(2) == 0) {
			tr = fingerprint.QUIC
		}
		ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{Start: traceStart, PayloadFrames: 1})
		if err != nil {
			return nil, fmt.Errorf("rendering flow: %w", err)
		}
		if !b.claim([]*tracegen.FlowTrace{ft}) {
			continue
		}
		up, err := ackFrame(ft, rng)
		if err != nil {
			return nil, err
		}
		fi := b.addFlow(ft)
		base := traceStart.Add(time.Duration(fi) * time.Millisecond).UnixNano()
		last := len(ft.Frames) - 1 // the one payload frame
		for _, fr := range ft.Frames[:last] {
			b.frames = append(b.frames, frameRef{ts: base + int64(fr.Offset), flow: fi, c2s: fr.ClientToServer})
			b.data = append(b.data, fr.Data)
		}
		gap := int64(establishedFrameGap)
		b.steady = append(b.steady,
			frameRef{ts: int64(len(b.steady)) * gap, flow: fi},
			frameRef{ts: int64(len(b.steady)+1) * gap, flow: fi, c2s: true})
		steadyData = append(steadyData, ft.Frames[last].Data, up)
	}
	b.data = append(b.data, steadyData...)
	w, err := b.finish()
	if err != nil {
		return nil, err
	}
	w.roundLen = int64(len(w.steady)) * int64(establishedFrameGap)
	w.roundStart = w.frames[len(w.frames)-1].ts + int64(100*time.Millisecond)
	w.rounds = int(float64(len(w.frames))/establishedHandshakeShare/float64(len(w.steady))) + 1
	return w, nil
}

// ackFrame builds a minimum-size client-to-server frame for an established
// flow: a bare TCP ACK, or a QUIC short header addressed to the server's
// connection ID (read from the server's long-header flight).
func ackFrame(ft *tracegen.FlowTrace, rng *rand.Rand) ([]byte, error) {
	ip := packet.IPv4{TTL: 60, Src: ft.ClientAddr, Dst: ft.ServerAddr, ID: uint16(rng.UintN(65536))}
	var seg []byte
	if ft.Transport == fingerprint.TCP {
		ip.Protocol = packet.ProtoTCP
		tcp := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
			Seq: rng.Uint32(), Ack: rng.Uint32(), Flags: packet.FlagACK, Window: 2048}
		seg = tcp.Append(nil, nil, ft.ClientAddr, ft.ServerAddr)
	} else {
		var scid []byte
		var ps packet.Parser
		var parsed packet.Parsed
		for _, fr := range ft.Frames {
			if fr.ClientToServer || ps.Parse(fr.Data, &parsed) != nil || !quicproto.IsLongHeader(parsed.Payload) {
				continue
			}
			ids, err := quicproto.ParseLongHeaderCIDs(parsed.Payload)
			if err != nil {
				return nil, fmt.Errorf("reading server connection ID: %w", err)
			}
			scid = ids.SCID
			break
		}
		// Short header, server CID, a 2-byte packet number, a 1-byte ACK
		// frame body and the 16-byte AEAD tag.
		body := make([]byte, 1+len(scid)+2+1+16)
		body[0] = 0x41
		copy(body[1:], scid)
		for i := 1 + len(scid); i < len(body); i++ {
			body[i] = byte(rng.UintN(256))
		}
		ip.Protocol = packet.ProtoUDP
		udp := packet.UDP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort}
		seg = udp.Append(nil, body, ft.ClientAddr, ft.ServerAddr)
	}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, seg)), nil
}

// replaySource feeds a workload to the daemon as a server.Source. With
// spans set it records, per replay batch, the time spent in Next and the
// gap between a batch's last Next and the next call: the dispatch.
type replaySource struct {
	w     *workload
	i     int
	spans *spanLog
	batch int // the daemon's replay batch size

	batchStart, lastReturn int64
	batchSpan              int32
	open                   bool
}

func (s *replaySource) Next() (pcap.Packet, error) {
	n := s.w.Len()
	if s.spans != nil && (s.i%s.batch == 0 || s.i >= n) {
		s.traceBoundary()
	}
	if s.i >= n {
		return pcap.Packet{}, io.EOF
	}
	ts, data := s.w.At(s.i)
	s.i++
	if s.spans != nil && (s.i%s.batch == 0 || s.i == n) {
		s.lastReturn = s.spans.now()
	}
	return pcap.Packet{Timestamp: time.Unix(0, ts).UTC(), Data: data, OrigLen: len(data)}, nil
}

// traceBoundary closes the previous batch's spans when a new batch
// begins. The replay loop reads exactly batch frames before each dispatch,
// so a call at a batch boundary follows a HandlePacketBatch. The last,
// partial batch is dispatched after the EOF call, so its dispatch is not
// seen. Clocks are read only at batch boundaries.
func (s *replaySource) traceBoundary() {
	now := s.spans.now()
	if s.open {
		s.spans.add("server.source", s.batchSpan, 0, s.batchStart, s.lastReturn)
		end := s.lastReturn
		if s.i%s.batch == 0 {
			s.spans.add("server.dispatch", s.batchSpan, 0, s.lastReturn, now)
			end = now
		}
		s.spans.end(s.batchSpan, end)
		s.open = false
	}
	if s.i < s.w.Len() {
		s.batchSpan = s.spans.begin("server.replay.batch", 0, 0, now)
		s.batchStart = now
		s.open = true
	}
}
