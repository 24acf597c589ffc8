package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/packet"
	"videoplat/internal/pipeline"
	"videoplat/internal/server"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

const (
	// bankSeed fixes the training set; the bank is the same in every run.
	bankSeed  = 1
	bankScale = 1.0
	// replayBatch is vpserve's default replay batch size.
	replayBatch = 64
	// maxFlows and idleTimeout are vpserve's flow-table defaults. The
	// daemon splits maxFlows over its shards; the reference replay holds
	// all of it in one table. The two agree only while no table reaches its
	// cap, which check verifies.
	maxFlows    = 65536
	idleTimeout = 90 * time.Second
)

// probe is one handshake per (provider, transport) of the bank, used to
// build the compiled serving index during set-up.
type probe struct {
	prov fingerprint.Provider
	tr   fingerprint.Transport
	info *features.HandshakeInfo
}

// trainBank trains the deployed bank shape, DefaultForestConfig on the
// Table 1 lab dataset at scale 1.0, and returns it serialized together
// with one probe handshake per (provider, transport).
func trainBank() ([]byte, []probe, error) {
	ds, err := tracegen.New(bankSeed).LabDataset(bankScale, fingerprint.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("rendering lab dataset: %w", err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: pipeline.DefaultForestConfig()})
	if err != nil {
		return nil, nil, fmt.Errorf("training bank: %w", err)
	}
	blob, err := bank.MarshalBinary()
	if err != nil {
		return nil, nil, fmt.Errorf("serializing bank: %w", err)
	}
	var probes []probe
	for _, prov := range fingerprint.AllProviders() {
		for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
			flows := ds.Filter(prov, tr)
			if len(flows) == 0 || bank.Model(prov, tr, pipeline.PlatformObjective) == nil {
				continue
			}
			info, err := pipeline.ExtractTrace(flows[0])
			if err != nil {
				return nil, nil, err
			}
			probes = append(probes, probe{prov, tr, info})
		}
	}
	return blob, probes, nil
}

// loadBank is the bank half of set-up: decode the serialized bank and
// build its compiled serving index with one ClassifyBatch per probe.
func loadBank(blob []byte, probes []probe) (*pipeline.Bank, error) {
	bank := new(pipeline.Bank)
	if err := bank.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	var sc pipeline.ClassifyScratch
	out := make([]pipeline.Prediction, 1)
	for _, p := range probes {
		if err := bank.ClassifyBatch(p.prov, p.tr, []*features.HandshakeInfo{p.info}, &sc, out); err != nil {
			return nil, fmt.Errorf("warming %s/%s: %w", p.prov, p.tr, err)
		}
	}
	return bank, nil
}

// daemonConfig is vpserve's default configuration with an unpaced replay,
// a kernel-chosen loopback port and the synthetic provider hint.
func daemonConfig(shards int, sink telemetry.Sink) server.Config {
	return server.Config{
		Addr:         "127.0.0.1:0",
		Shards:       shards,
		ProviderHint: tracegen.ProviderOfAddr,
		Sink:         sink,
	}
}

// totals are a run's flow accounting summed over every sealed window.
type totals struct {
	flows              int
	verdicts           map[string]int
	byProvider         map[string]int
	byPlatform         map[string]int
	bytesUp, bytesDown int64
}

func newTotals() *totals {
	return &totals{verdicts: map[string]int{}, byProvider: map[string]int{}, byPlatform: map[string]int{}}
}

func (t *totals) add(w *telemetry.Window) {
	t.flows += w.Flows
	for k, c := range w.ByProvider {
		t.byProvider[k] += c.Flows
		t.bytesUp += c.BytesUp
		t.bytesDown += c.BytesDown
	}
	for k, c := range w.ByPlatform {
		t.byPlatform[k] += c.Flows
	}
	if w.Quality != nil {
		for k, v := range w.Quality.Verdicts {
			t.verdicts[k] += int(v)
		}
	}
}

// totalsSink is the benchmark's Config.Sink. With spans set it records one
// span per WriteWindow call. WriteWindow runs on the daemon's aggregator
// goroutine, so spans must be a log of the sink's own.
type totalsSink struct {
	t     *totals
	spans *spanLog
}

func (s *totalsSink) WriteWindow(w *telemetry.Window) error {
	var t0 int64
	if s.spans != nil {
		t0 = s.spans.now()
	}
	s.t.add(w)
	if s.spans != nil {
		s.spans.add("server.sink_write", 0, 0, t0, s.spans.now())
	}
	return nil
}

// diffFlows counts the flows by which two count maps differ: each flow
// moved from one key to another shows up twice in the absolute difference.
func diffFlows(a, b map[string]int) int {
	d := 0
	for k, v := range a {
		d += abs(v - b[k])
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			d += abs(v)
		}
	}
	return (d + 1) / 2
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func formatCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, m[k])
	}
	return b.String()
}

// reference is the single-threaded replay the daemon's totals must match.
type reference struct {
	totals    *totals
	flows     int
	correct   int // flows whose predicted platform equals the label
	unmatched int // records that match no rendered flow
	errors    int
	capEvicts int                    // flows evicted because the table was full
	records   []*pipeline.FlowRecord // kept for the traced layer pass
}

// replayReference runs the workload through one immediate-mode Pipeline
// with the daemon's total flow cap, idle timeout and hint, finalizes
// leftover pending flows as no-handshake as the daemon's shutdown does, and
// folds every record through a rollup into totals.
func replayReference(bank *pipeline.Bank, w *workload, keep bool) *reference {
	ref := &reference{totals: newTotals()}
	// Every pass repeats the same flows on the same keys, so a record's
	// ground truth is found by its canonical key alone.
	truth := make(map[packet.FlowKey]int32, len(w.flows))
	for i, f := range w.flows {
		truth[f.canon] = int32(i)
	}
	roll := telemetry.NewRollup(time.Minute, &totalsSink{t: ref.totals})
	finish := func(rec *pipeline.FlowRecord) {
		ref.flows++
		roll.Add(rec)
		if i, ok := truth[rec.Key.Canonical()]; ok {
			if rec.Verdict == pipeline.VerdictClassified && rec.Prediction.Platform == w.flows[i].label {
				ref.correct++
			}
		} else {
			ref.unmatched++
		}
		if keep {
			ref.records = append(ref.records, rec)
		}
	}
	p := pipeline.NewWithConfig(bank, pipeline.Config{
		MaxFlows:     maxFlows,
		IdleTimeout:  idleTimeout,
		ProviderHint: tracegen.ProviderOfAddr,
		OnEvict: func(rec *pipeline.FlowRecord, why flowtable.Reason) {
			if why == flowtable.ReasonCap {
				ref.capEvicts++
			}
			finish(rec)
		},
	})
	for i := 0; i < w.Len(); i++ {
		ts, data := w.At(i)
		if _, err := p.HandlePacket(time.Unix(0, ts).UTC(), data); err != nil {
			ref.errors++
		}
	}
	for _, rec := range p.Flows() {
		if rec.Verdict == pipeline.VerdictPending {
			rec.Verdict = pipeline.VerdictNoHandshake
		}
		finish(rec)
	}
	roll.Flush()
	return ref
}

// runResult is one measured daemon replay.
type runResult struct {
	setup     time.Duration // process CPU time of set-up
	setupWall time.Duration
	wall      time.Duration
	stolen    time.Duration // the host's share of wall: stolen vCPU time ÷ vCPUs
	cpu       time.Duration
	allocB    uint64
	liveHeapB uint64
	gcCPU     float64 // share of process CPU spent in GC
	totals    *totals
	stats     server.Stats
	frames    int
	shards    int
}

// runDaemon sets up one daemon over the serialized bank and replays the
// workload through it. setup covers bank decode, index build and
// server.New; wall covers Run start to Run return.
//
// Both are taken so that time the hypervisor withholds from the machine
// does not count. On a shared VM that time is a large and varying share of
// wall time (20-50% on the 2-vCPU VM the bounds were set on), and it is no
// property of the program. setup is process CPU time, which excludes it.
// The replay is timed by wall clock, and runTime nets the stolen time out.
func runDaemon(blob []byte, probes []probe, w *workload, shards int, spans *spanLog) (*runResult, error) {
	res := &runResult{totals: newTotals(), frames: w.Len(), shards: shards}
	base := liveHeap()

	t0, cpuSetup := time.Now(), processCPU()
	bank, err := loadBank(blob, probes)
	if err != nil {
		return nil, err
	}
	// The replay goroutine and the aggregator goroutine record into logs
	// of their own, merged once Run has returned.
	sink := &totalsSink{t: res.totals}
	if spans != nil {
		sink.spans = spans.fork()
	}
	src := &replaySource{w: w, spans: spans, batch: replayBatch}
	srv, err := server.New(bank, src, daemonConfig(shards, sink))
	if err != nil {
		return nil, err
	}
	res.setup, res.setupWall = processCPU()-cpuSetup, time.Since(t0)

	runtime.GC()
	gc0 := readGCCPU()
	cpu0 := processCPU()
	alloc0 := heapAllocBytes()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	steal0 := readSteal()
	start := time.Now()
	go func() { done <- srv.Run(ctx) }()
	<-srv.ReplayDone()
	cancel()
	runErr := <-done
	res.wall = time.Since(start)
	res.stolen = readSteal().since(steal0)
	res.cpu = processCPU() - cpu0
	res.allocB = heapAllocBytes() - alloc0
	res.gcCPU = readGCCPU().share(gc0)
	if runErr != nil {
		return nil, fmt.Errorf("daemon: %w", runErr)
	}
	if spans != nil {
		spans.merge(sink.spans)
	}
	// The server still holds its flow tables, CID indexes and store.
	if live := liveHeap(); live > base {
		res.liveHeapB = live - base
	}
	res.stats = srv.Snapshot()
	return res, nil
}

// liveHeap forces a collection and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle also drops what sync.Pools let go of
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTime is the replay's wall time net of the time the host took: the
// frames and flows rates divide by it. Without steal accounting it is the
// wall time.
func (r *runResult) runTime() time.Duration {
	if r.stolen <= 0 || r.stolen >= r.wall {
		return r.wall
	}
	return r.wall - r.stolen
}

// stealSample is the kernel's steal counter summed over the machine's CPUs,
// in USER_HZ ticks, and the number of CPUs. ok is false where the kernel
// does not report steal.
type stealSample struct {
	ticks int64
	cpus  int
	ok    bool
}

// readSteal reads the steal field of /proc/stat's aggregate cpu line: time
// a vCPU was runnable but the hypervisor ran something else.
func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	var s stealSample
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			v, err := strconv.ParseInt(f[8], 10, 64)
			if err != nil {
				return stealSample{}
			}
			s.ticks, s.ok = v, true
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			s.cpus++
		}
	}
	s.ok = s.ok && s.cpus > 0
	return s
}

// userHZ is the unit of /proc/stat, fixed at 100 ticks per second.
const userHZ = 100

// since is the stolen time per CPU between two samples.
func (s stealSample) since(before stealSample) time.Duration {
	if !s.ok || !before.ok || s.ticks < before.ticks {
		return 0
	}
	return time.Duration(s.ticks-before.ticks) * (time.Second / userHZ) / time.Duration(s.cpus)
}

type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcCPU{s[0].Value.Float64(), s[1].Value.Float64()}
}

func (g gcCPU) share(before gcCPU) float64 {
	if d := g.total - before.total; d > 0 {
		return (g.gc - before.gc) / d
	}
	return 0
}

// check compares one daemon run with the reference. failed counts the
// flows by which the totals differ; problems lists every conservation
// breach and every difference the known pending-verdict defect does not
// explain.
func check(run *runResult, ref *reference, w *workload) (failed int, problems []string) {
	d := run.totals
	want := w.FlowCount()
	failed = max(abs(d.flows-ref.totals.flows),
		diffFlows(d.verdicts, ref.totals.verdicts),
		diffFlows(d.byProvider, ref.totals.byProvider),
		diffFlows(d.byPlatform, ref.totals.byPlatform))
	failed = min(failed, want) // a replay attempts the workload's flows
	st := run.stats
	if int(st.Replay.Packets) != run.frames {
		problems = append(problems, fmt.Sprintf("replayed %d of %d frames", st.Replay.Packets, run.frames))
	}
	if st.Ingest.IgnoredFrames+st.Ingest.FilteredFrames != 0 {
		problems = append(problems, fmt.Sprintf("%d frames ignored and %d filtered at ingest", st.Ingest.IgnoredFrames, st.Ingest.FilteredFrames))
	}
	if st.Replay.Error != "" {
		problems = append(problems, "replay error: "+st.Replay.Error)
	}
	if st.Rollup.SinkErrors != 0 {
		problems = append(problems, fmt.Sprintf("%d sink errors", st.Rollup.SinkErrors))
	}
	// A flow evicted for capacity in one replay and not the other makes
	// the totals differ for a reason that is not a defect, so the
	// comparison holds only without capacity evictions.
	if st.FlowTable.EvictedCap != 0 || ref.capEvicts != 0 {
		problems = append(problems, fmt.Sprintf("capacity evictions: daemon %d (cap %d per shard), reference %d (cap %d); the workload outgrows the flow tables",
			st.FlowTable.EvictedCap, maxFlows/run.shards, ref.capEvicts, maxFlows))
	}
	if int(st.FlowTable.Inserted) != want {
		problems = append(problems, fmt.Sprintf("flowtable.inserted %d, workload flows %d", st.FlowTable.Inserted, want))
	}
	if d.flows != want || ref.flows != want || ref.totals.flows != want {
		problems = append(problems, fmt.Sprintf("flows: daemon %d, reference %d, workload %d", d.flows, ref.flows, want))
	}
	if ref.unmatched != 0 || ref.errors != 0 {
		problems = append(problems, fmt.Sprintf("reference: %d records match no rendered flow, %d classify errors", ref.unmatched, ref.errors))
	}
	if d.bytesUp != ref.totals.bytesUp || d.bytesDown != ref.totals.bytesDown {
		problems = append(problems, fmt.Sprintf("bytes up/down: daemon %d/%d, reference %d/%d",
			d.bytesUp, d.bytesDown, ref.totals.bytesUp, ref.totals.bytesDown))
	}
	if n := diffFlows(d.byProvider, ref.totals.byProvider); n != 0 {
		problems = append(problems, fmt.Sprintf("%d flows differ by provider", n))
	}
	// The known defect: a flow deferred for batch classification is evicted
	// by an idle sweep later in the same shard batch and finalizes as
	// pending, where the reference classifies it. Those flows are failed;
	// anything else is a problem.
	pending := d.verdicts[pipeline.VerdictPending.String()]
	if ref.totals.verdicts[pipeline.VerdictPending.String()] != 0 || failed > pending {
		problems = append(problems, fmt.Sprintf("%d flows differ, %d of them pending: daemon verdicts {%s}, reference {%s}",
			failed, pending, formatCounts(d.verdicts), formatCounts(ref.totals.verdicts)))
	}
	return failed, problems
}
