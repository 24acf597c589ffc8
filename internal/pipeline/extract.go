// Package pipeline implements the paper's Fig 4 packet-processing pipeline:
// packets are parsed, filtered to the four providers' video flows by SNI,
// split into handshake and payload packets, formalized into the Table 2
// attributes, and classified by a per-provider bank of random-forest models
// with the 80% confidence selector of §4.1. Classified flows are joined with
// volumetric telemetry for the §5 analyses.
//
// # Parse-once batched ingest
//
// Two entry points feed the pipeline. Pipeline.HandlePacket is the
// single-core batch path. Sharded is the deployment shape of the paper's
// multi-queue DPDK prototype: an ingest goroutine parses each frame exactly
// once (the same decode that picks the shard) and summarizes it into the
// flow key, canonical key and payload length that travel with the frame's
// bytes — packed back-to-back into a pooled per-batch arena, one channel
// send per shard per batch (HandlePacketBatch; HandlePacket ships a batch
// of one). Shard workers never re-parse.
//
// Buffer-reuse rules: a batch's arena is recycled as soon as the shard
// worker has run every frame through the pipeline, which is safe because
// the pipeline copies anything it retains past the call (client handshake
// payload bytes are copied, and QUIC Initials decrypted, into the flow's
// handshake buffer; flow keys and telemetry are values). Code that adds
// retention to the flow path must keep that copy-on-retain invariant or
// the arena recycle in Sharded becomes a use-after-free. Handshake buffers
// are recycled in turn: each Pipeline keeps a free list of at most one
// batch of them, a flow takes one on its first client handshake bytes, and
// Pipeline.releaseAsm returns it once the flow's classification — and the
// Config.OnClassify hook, whose HandshakeInfo aliases it — is over. Code
// that keeps a Hello, transport parameters or HandshakeInfo past that
// point must copy it. Flow state and flow-table entries are recycled in
// the same way, at eviction: once the eviction hook has finished a flow —
// its CIDs unregistered, its span finished, its handshake buffer released,
// any pending batch classification done — and Config.OnEvict has returned,
// its state and table entry are cleared and kept (at most one batch of
// each) for the next new flow. OnEvict still receives a copy of the record
// that the hook owns and may keep; nothing else may keep a *flowState past
// its eviction. On a warm pipeline a TCP flow's whole life, first frame to
// eviction, allocates only the values callers own: the SNI string, the
// classification record and the OnEvict copy (pinned by
// TestFlowLifecycleAllocs). Frames with no TCP/UDP 5-tuple are dropped at
// ingest (counted in Sharded.Ignored); queue depths and the best-effort
// results buffer are Config knobs with shard-count-scaled defaults.
//
// # Zero-allocation classification fast path
//
// Classification — the per-flow cost once ingest is parse-once — is built
// around two pieces:
//
//   - Incremental handshake assembly into reused buffers. Each flow owns an
//     hsAssembler, a small state machine that consumes client-direction
//     bytes as they arrive and remembers parse progress (SYN fields,
//     buffered TCP payload bytes), so a flow is reassembled once in
//     O(client handshake bytes) instead of re-running full reassembly over
//     every buffered frame on every packet. The bytes, the decrypted QUIC
//     Initial, the ClientHello and the transport parameters all decode
//     into the flow's pooled handshake buffer through the parsers' Into
//     forms (tlsproto.ParseRecordInto and ParseInto,
//     quicproto.InitialOpener.ParseInto with the pipeline's opener,
//     quicproto.ParseTransportParametersInto), so with a warm free list
//     assembly allocates nothing but the AES and GCM state of each QUIC
//     Initial's keys (pinned by TestAssemblerZeroAlloc). Server-direction
//     packets never touch assembly, and buffered bytes are bounded by
//     Config.MaxHelloBytes (oversized flows are abandoned and counted in
//     OversizedHandshakes).
//
//   - Compiled encoding and pooled prediction. A completed handshake is
//     deferred to the end of its ingest batch (a batch of one for
//     Pipeline.HandlePacket), where Bank.ClassifyBatch encodes each
//     deferred flow once through the models' shared
//     features.CompiledEncoder — raw wire values resolved through interned
//     tables, no FieldValues maps, no string formatting — and sweeps the
//     rows through the three objectives' compiled forests over the
//     pipeline-owned ClassifyScratch. One-flow callers (degraded attempts,
//     flows evicted before their flush) use Bank.ClassifyHandshake, the
//     per-row form of the same path. The encode+predict stage performs
//     zero steady-state allocations, and its output is byte-identical to
//     the reference Extract+Transform+Classify path (pinned by the
//     golden-equivalence tests).
//
// Scratch-reuse rules: each Pipeline owns one ClassifyScratch and one
// assembly scratch (opener and handshake free list), and each Sharded
// shard owns its Pipeline, so scratch state is single-goroutine by
// construction. The HandshakeInfo passed to Config.OnClassify aliases the
// flow's handshake buffer and is only valid for the duration of the hook
// call; the shadow evaluator classifies synchronously within it.
// Serialized banks carry only encoders and forests. UnmarshalBinary
// rebuilds the compiled tables and the shared-encoder index at load, and
// refuses a bank that does not compile, so the gob format is unchanged and
// older banks load into the compiled path or not at all.
package pipeline

import (
	"errors"
	"fmt"
	"strings"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
	"videoplat/internal/tracegen"
)

// ErrNoHandshake is returned when a flow's frames contain no ClientHello.
var ErrNoHandshake = errors.New("pipeline: no ClientHello in flow")

// MatchProvider maps an SNI to a video provider, reproducing the paper's
// SNI-based traffic detection (content and management hostnames).
// The boolean reports whether the SNI matched at all; content reports
// whether it is a content (video-carrying) server rather than a management
// front-end.
func MatchProvider(sni string) (prov fingerprint.Provider, content, ok bool) {
	s := strings.ToLower(sni)
	switch {
	case strings.HasSuffix(s, ".googlevideo.com"):
		return fingerprint.YouTube, true, true
	case strings.HasSuffix(s, "youtube.com"):
		return fingerprint.YouTube, false, true
	case strings.HasSuffix(s, ".nflxvideo.net"):
		return fingerprint.Netflix, true, true
	case strings.HasSuffix(s, "netflix.com"):
		return fingerprint.Netflix, false, true
	case strings.HasSuffix(s, ".media.dssott.com"), strings.HasSuffix(s, ".dssott.com"):
		return fingerprint.Disney, true, true
	case strings.HasSuffix(s, "disneyplus.com"):
		return fingerprint.Disney, false, true
	case strings.HasSuffix(s, ".aiv-cdn.net"), strings.HasSuffix(s, ".cloudfront.net"):
		return fingerprint.Amazon, true, true
	case strings.HasSuffix(s, "primevideo.com"), strings.HasSuffix(s, "amazonvideo.com"):
		return fingerprint.Amazon, false, true
	}
	return 0, false, false
}

// hsAssembler is the incremental per-flow handshake assembler: a small
// state machine that consumes client-direction frames one at a time,
// remembering parse progress (SYN fields seen, TCP payload bytes buffered),
// so a flow's handshake is reassembled in O(total client bytes) instead of
// re-running full reassembly over every buffered frame on every packet.
// Consuming a flow's client frames in order leaves the assembler in exactly
// the state ExtractFrames' batch fold would have reached — ExtractFrames is
// implemented on top of it.
//
// The assembler never aliases its input frames: TCP payloads and split
// CRYPTO streams are copied into the flow's hsBuf, QUIC Initials decrypt
// into it, and the Hello and transport parameters decode into it. So
// callers may recycle frame buffers (e.g. Sharded's batch arenas) as soon
// as consume returns. The hsBuf is taken from the pipeline's free list on
// the flow's first client handshake bytes and stays the flow's until
// Pipeline.releaseAsm, which runs once nothing aliases it any more.
type hsAssembler struct {
	info   features.HandshakeInfo
	buf    *hsBuf // nil until the first client handshake bytes
	frames int    // client frames consumed so far
	sawSYN bool
	// sawInit records that the transport attributes (TTL, initial packet
	// size) were captured from the flow's first QUIC packet, so later
	// packets never overwrite them.
	sawInit bool
	// zeroRTT marks that the client sent 0-RTT early data: the handshake
	// rides resumed keys and no fresh ClientHello may ever appear.
	zeroRTT bool
	// giveUp marks that the assembler has proof no hello is coming — the
	// client moved to short-header (1-RTT) packets after 0-RTT early data
	// without ever showing a ClientHello.
	giveUp bool
}

// hsBuf is the storage one flow's handshake decodes into. Its slices keep
// their capacity across the flows that reuse it, so once a pipeline's free
// list is warm, assembly allocates nothing beyond the per-key AES and GCM
// state of each QUIC Initial.
type hsBuf struct {
	hello  tlsproto.ClientHello
	params quicproto.TransportParameters
	// stream buffers client TCP payload bytes, or a QUIC CRYPTO stream
	// split across Initials (e.g. a hello fragmented around a mid-handshake
	// migration). Only a contiguous CRYPTO prefix is kept; out-of-order
	// fragments end the flow as no-handshake rather than buying an
	// unbounded reorder buffer.
	stream []byte
	plain  []byte // the last decrypted Initial payload
	frag   []byte // the defragmented handshake of a hello spanning TLS records
}

// asmScratch is a pipeline's shared assembly state: the QUIC Initial
// opener and a bounded free list of flow buffers. Single-goroutine, like
// the Pipeline that owns it.
type asmScratch struct {
	opener quicproto.InitialOpener
	free   []*hsBuf
}

const (
	// maxFreeHsBufs caps the free list at one ingest batch of flows.
	// Buffers released past it are left to the collector, so a burst of
	// concurrent handshakes cannot pin memory after it passes.
	maxFreeHsBufs = 64
	// maxPooledHsBytes drops a buffer that grew past any real hello (an
	// adversarial stream near MaxHelloBytes) instead of pooling it.
	maxPooledHsBytes = 16 << 10
)

// get returns a buffer from the free list, or a new one when it is empty.
//
//vp:hotpath
func (s *asmScratch) get() *hsBuf {
	n := len(s.free)
	if n == 0 {
		return new(hsBuf) //vp:allocok free list empty: at most one buffer per concurrently assembling flow, then recycled
	}
	b := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return b
}

// put returns a flow's buffer to the free list. Nothing may alias it any
// more: the next get hands it to another flow.
//
//vp:hotpath
func (s *asmScratch) put(b *hsBuf) {
	if b == nil || len(s.free) >= maxFreeHsBufs ||
		cap(b.stream)+cap(b.plain)+cap(b.frag) > maxPooledHsBytes {
		return
	}
	b.stream = b.stream[:0]
	s.free = append(s.free, b)
}

func (a *hsAssembler) init() { a.info.TCPWScale = -1 }

// buffered reports the client handshake bytes currently held for this flow
// (the quantity Config.MaxHelloBytes bounds).
func (a *hsAssembler) buffered() int {
	if a.buf == nil {
		return 0
	}
	return len(a.buf.stream)
}

// take returns the flow's buffer, taking one from sc on first use.
//
//vp:hotpath
func (a *hsAssembler) take(sc *asmScratch) *hsBuf {
	if a.buf == nil {
		a.buf = sc.get()
	}
	return a.buf
}

// consume feeds one client-direction frame to the state machine, parsing it
// with the caller's scratch parser state. It returns true once the flow's
// ClientHello has been fully assembled, after which a.info is complete
// (including pre-parsed QUIC transport parameters) and no further frames
// should be offered. Callers that already decoded the frame (the plain
// HandlePacket path) use consumeParsed instead, keeping the parse-once
// contract.
func (a *hsAssembler) consume(parser *packet.Parser, parsed *packet.Parsed, frame []byte, sc *asmScratch) bool {
	if err := parser.Parse(frame, parsed); err != nil {
		a.frames++
		return false // non-IP noise is skipped, as a tap would
	}
	return a.consumeParsed(parsed, frame, sc)
}

// consumeParsed is consume after its decode. parsed must be the result of
// Parser.Parse(frame, parsed). Allocation-free with a warm sc, apart from
// the waived per-key AES and GCM state of each QUIC Initial; pinned by
// TestAssemblerZeroAlloc.
//
//vp:hotpath
func (a *hsAssembler) consumeParsed(parsed *packet.Parsed, frame []byte, sc *asmScratch) bool {
	a.frames++
	info := &a.info
	switch {
	case parsed.Has(packet.LayerTCP):
		t := &parsed.TCP
		if t.Flags&packet.FlagSYN != 0 && t.Flags&packet.FlagACK == 0 && !a.sawSYN {
			a.sawSYN = true
			info.QUIC = false
			info.TTL = parsed.TTL()
			info.InitPacketSize = len(frame) - 14 // IP packet size
			info.TCPFlags = t.Flags
			info.TCPWindow = t.Window
			info.TCPMSS = t.MSS()
			info.TCPWScale = t.WindowScale()
			info.TCPSACK = t.SACKPermitted()
		}
		if len(parsed.Payload) > 0 && info.Hello == nil {
			b := a.take(sc)
			b.stream = append(b.stream, parsed.Payload...)
			err := tlsproto.ParseRecordInto(&b.hello, b.stream, &b.frag)
			if err == nil {
				info.Hello = &b.hello
				return true
			}
			if !errors.Is(err, tlsproto.ErrMalformed) {
				// Not a handshake record at all: wrong flow start.
				b.stream = b.stream[:0]
			}
		}
	case parsed.Has(packet.LayerUDP):
		if !quicproto.IsLongHeader(parsed.Payload) {
			// A short header before any hello: the client is in 1-RTT. If
			// early data preceded it, the handshake rode resumed keys and
			// no ClientHello is coming — proof, not a heuristic.
			if a.zeroRTT && info.Hello == nil {
				a.giveUp = true
			}
			return false
		}
		if quicproto.LongHeaderType(parsed.Payload) == quicproto.Type0RTT {
			// 0-RTT early data: opaque under resumed keys, and evidence the
			// flow is a session resumption. Its envelope still carries the
			// transport attributes the degraded path classifies on.
			a.zeroRTT = true
			if !a.sawInit {
				a.sawInit = true
				info.QUIC = true
				info.TTL = parsed.TTL()
				info.InitPacketSize = len(parsed.Payload)
			}
			return false
		}
		b := a.take(sc)
		var init quicproto.Initial
		if sc.opener.ParseInto(&init, parsed.Payload, &b.plain) != nil {
			return false
		}
		if !a.sawInit {
			a.sawInit = true
			info.QUIC = true
			info.TTL = parsed.TTL()
			info.InitPacketSize = init.WireSize
		}
		// Fast path: the whole hello in one Initial — no buffering, the
		// parsed Hello aliases the decrypted payload in b.plain.
		if init.CryptoOffset == 0 && len(b.stream) == 0 {
			if tlsproto.ParseInto(&b.hello, init.CryptoData) == nil {
				info.Hello = &b.hello
				return true
			}
		}
		// Cross-packet CRYPTO accumulation: a hello split across Initials
		// (a client that migrated mid-handshake fragments its flight).
		// Fragments must arrive contiguously; a gap means the flow ends as
		// no-handshake via the frame-count heuristic.
		if int(init.CryptoOffset) == len(b.stream) && len(init.CryptoData) > 0 {
			b.stream = append(b.stream, init.CryptoData...)
			if tlsproto.ParseInto(&b.hello, b.stream) == nil {
				info.Hello = &b.hello
				return true
			}
		}
		return false
	}
	return false
}

// finish completes an assembled handshake: for QUIC it pre-parses the
// transport parameters once, into the flow's buffer, so the serving path's
// compiled encoders never re-parse extension 57. Call only after consume
// returned true.
//
//vp:hotpath
func (a *hsAssembler) finish() *features.HandshakeInfo {
	info := &a.info
	if info.QUIC && info.Params == nil && info.Hello != nil {
		if e, ok := info.Hello.Extension(tlsproto.ExtQUICTransportParams); ok {
			if quicproto.ParseTransportParametersInto(&a.buf.params, e.Data) == nil {
				info.Params = &a.buf.params
			}
		}
	}
	return info
}

// ExtractFrames assembles a flow's HandshakeInfo from its client-side
// frames: the TCP SYN + ClientHello record, or the QUIC Initial. This is the
// handshake-attribute path of Fig 4's preprocessing stage, expressed as a
// batch fold over the incremental assembler the streaming pipeline uses.
func ExtractFrames(frames [][]byte) (*features.HandshakeInfo, error) {
	var parser packet.Parser
	var parsed packet.Parsed
	var sc asmScratch // fresh: the returned handshake owns its buffer
	var a hsAssembler
	a.init()
	for _, frame := range frames {
		if a.consume(&parser, &parsed, frame, &sc) {
			return a.finish(), nil
		}
	}
	return nil, ErrNoHandshake
}

// ExtractTrace assembles HandshakeInfo from a generated FlowTrace's
// client-side frames.
func ExtractTrace(ft *tracegen.FlowTrace) (*features.HandshakeInfo, error) {
	var frames [][]byte
	for _, fr := range ft.Frames {
		if fr.ClientToServer {
			frames = append(frames, fr.Data)
		}
	}
	info, err := ExtractFrames(frames)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", ft.Label, ft.Provider, err)
	}
	return info, nil
}

// DeviceOf maps a composite platform label to its device-type class
// (windows/macOS/android/iOS/TV), the paper's device-type objective.
func DeviceOf(label string) string {
	i := strings.IndexByte(label, '_')
	if i < 0 {
		return label
	}
	dev := label[:i]
	switch dev {
	case "androidTV", "ps5":
		return "TV"
	}
	return dev
}

// AgentOf maps a composite platform label to its software-agent class.
func AgentOf(label string) string {
	i := strings.IndexByte(label, '_')
	if i < 0 {
		return label
	}
	return label[i+1:]
}
