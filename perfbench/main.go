// Command perfbench is the repository's benchmark. It replays generated
// traffic through the vpserve daemon (server.New + Run, fed by the
// benchmark's own Source) and reports end-to-end metrics, checking every
// run's flow accounting against a single-threaded reference replay. With
// --trace 1 it also times each layer's public entry points over the same
// workload and reports per-layer metrics. See README.md.
//
// Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload handshake-churn --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spanDir holds the traced runs' span files, beside the build outputs.
var spanDir = filepath.Join(".bench_build", "perfbench")

// meta makes a result reproducible: what ran, where, and on which bank.
type meta struct {
	Workload     string                     `json:"workload"`
	Why          string                     `json:"why"`
	Seed         uint64                     `json:"seed"`
	Seconds      int                        `json:"seconds"`
	Trace        bool                       `json:"trace"`
	Host         string                     `json:"host"`
	NProc        int                        `json:"nproc"`
	GOMAXPROCS   int                        `json:"gomaxprocs"`
	Shards       int                        `json:"shards"`
	GoVersion    string                     `json:"go_version"`
	StealCounted bool                       `json:"steal_counted"`
	Commit       string                     `json:"commit"`
	Bank         pipeline.CompiledFootprint `json:"bank"`
	Frames       int                        `json:"frames_per_replay"`
	Flows        int                        `json:"flows_per_replay"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: handshake-churn, established, adversarial-mix, or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	var specs []workloadSpec
	if *name == "all" {
		specs = workloadSpecs
	} else if ws, ok := findWorkload(*name); ok {
		specs = []workloadSpec{ws}
	}
	if len(specs) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s or all, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		return 2
	}

	shards := max(1, runtime.NumCPU()-1)
	host, _ := os.Hostname()
	base := meta{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Shards: shards,
		GoVersion: runtime.Version(), StealCounted: readSteal().ok, Commit: commit(),
	}

	t0 := time.Now()
	blob, probes, err := trainBank()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: trained bank in %.1fs (%d bytes serialized)\n", time.Since(t0).Seconds(), len(blob))

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, ws := range specs {
		res, err := runWorkload(ws, base, blob, probes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", ws.name, err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(specs) > 1 {
				k = ws.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, ws := range workloadSpecs {
		names = append(names, ws.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload renders one workload, replays it through the daemon until
// the measured time is spent, checks every replay, and returns the metrics:
// end-to-end ones untraced, per-layer ones with --trace 1.
func runWorkload(ws workloadSpec, m meta, blob []byte, probes []probe) (result, error) {
	w, err := ws.build(m.Seed)
	if err != nil {
		return result{}, err
	}
	bank, err := loadBank(blob, probes)
	if err != nil {
		return result{}, err
	}
	m.Workload, m.Why = ws.name, ws.why
	m.Bank = bank.CompiledFootprint()
	m.Frames, m.Flows = w.Len(), w.FlowCount()

	t0 := time.Now()
	ref := replayReference(bank, w, m.Trace)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d frames, %d flows per replay; reference replay %.1fs\n",
		ws.name, m.Frames, m.Flows, time.Since(t0).Seconds())
	metaLine, _ := json.Marshal(map[string]any{"meta": m})
	fmt.Println(string(metaLine))

	// Replays run until the measured time is spent. The first is a
	// warm-up and enters only the correctness check. With tracing, every
	// other replay records spans, so traced and untraced replays
	// alternate under the same conditions; the last traced replay's spans
	// are kept, and the layer and ingest passes add theirs.
	var spans *spanLog
	res := result{Correct: true, Metrics: map[string]metric{}}
	var plain, traced []*runResult
	problems := map[string]bool{}
	pending := 0
	deadline := time.Now().Add(time.Duration(m.Seconds) * time.Second)
	for i := 0; ; i++ {
		isTraced := m.Trace && i%2 == 1
		var sp *spanLog
		if isTraced {
			sp = newSpanLog()
			spans = sp
		}
		r, err := runDaemon(blob, probes, w, m.Shards, sp)
		if err != nil {
			return result{}, err
		}
		failed, probs := check(r, ref, w)
		tag := ""
		if isTraced {
			tag = " (traced)"
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: replay %d%s: %.0f frames/s (%.0f by wall clock, %.0f%% stolen), %.0f cpu ns/frame, setup %.1f ms cpu (%.1f ms wall), %d failed\n",
			ws.name, i, tag, framesPerSec(r), float64(r.frames)/r.wall.Seconds(), 100*stealRatio(r),
			float64(r.cpu.Nanoseconds())/float64(r.frames), r.setup.Seconds()*1e3, r.setupWall.Seconds()*1e3, failed)
		// Every replay offers the same flows, and a flow fails when any
		// replay's totals disagree with the reference over it, so the
		// counts do not grow with the number of replays the time allows.
		res.Attempted = m.Flows
		res.Failed = max(res.Failed, failed)
		pending = r.totals.verdicts[pipeline.VerdictPending.String()]
		for _, p := range probs {
			problems[p] = true
		}
		switch {
		case i == 0:
		case isTraced:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
		}
		if time.Now().After(deadline) && len(plain) >= 3 && (!m.Trace || len(traced) >= 2) {
			break
		}
	}
	for p := range problems {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", ws.name, p)
	}
	accuracy := float64(ref.correct) / float64(ref.flows)

	e2e := map[string]metric{
		"pkts_per_s":          {median(plain, framesPerSec), "frames/s"},
		"flows_per_s":         {median(plain, func(r *runResult) float64 { return float64(r.totals.flows) / r.runTime().Seconds() }), "flows/s"},
		"cpu_ns_per_pkt":      {median(plain, func(r *runResult) float64 { return float64(r.cpu.Nanoseconds()) / float64(r.frames) }), "ns"},
		"alloc_bytes_per_pkt": {median(plain, func(r *runResult) float64 { return float64(r.allocB) / float64(r.frames) }), "B"},
		"live_heap_mb":        {median(plain, func(r *runResult) float64 { return float64(r.liveHeapB) / (1 << 20) }), "MiB"},
		"accuracy":            {accuracy, "ratio"},
		"setup_s":             {median(plain, func(r *runResult) float64 { return r.setup.Seconds() }), "s"},
	}
	fmt.Printf("%s: %d replays measured (+1 warm-up), %d frames and %d flows each\n", ws.name, len(plain), m.Frames, m.Flows)
	printMetrics(e2e)
	fmt.Printf("%s: check: at most %d of %d flows failed in any of %d replays (%.4f%%); %d per replay finalize as pending where the reference classifies them\n",
		ws.name, res.Failed, res.Attempted, len(plain)+len(traced)+1, 100*float64(res.Failed)/float64(res.Attempted), pending)
	if !m.Trace {
		res.Metrics = e2e
		return res, nil
	}

	layers, err := tracedLayers(bank, w, ref, m, plain, traced, spans, pending)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", ws.name, m.Seed))
	if err := spans.write(path, m); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("%s: per-layer metrics (spans in %s)\n", ws.name, path)
	printMetrics(layers)
	res.Metrics = layers
	return res, nil
}

// tracedLayers derives the per-layer metrics: daemon counters and spans
// from the traced replays, then the layer and ingest passes.
func tracedLayers(bank *pipeline.Bank, w *workload, ref *reference, m meta, plain, traced []*runResult, spans *spanLog, pending int) (map[string]metric, error) {
	layers, err := layerPass(bank, w, ref.records, spans)
	if err != nil {
		return nil, err
	}
	layers["ingest.pkt_ns"] = metric{ingestPass(bank, w, m.Shards, false, spans), "ns"}
	layers["ingest.pkt_ns_obs"] = metric{ingestPass(bank, w, m.Shards, true, spans), "ns"}

	last := traced[len(traced)-1].stats
	layers["ingest.stall_ratio"] = metric{median(traced, func(r *runResult) float64 {
		return float64(r.stats.Ingest.Stalls) / float64(max(r.stats.Ingest.Batches, 1))
	}), "ratio"}
	layers["ingest.results_dropped_ratio"] = metric{median(traced, func(r *runResult) float64 {
		d := float64(r.stats.DroppedResults)
		return d / max(d+float64(r.stats.ClassifiedFlows+r.stats.UnknownFlows), 1)
	}), "ratio"}
	layers["flowtable.inserted"] = metric{float64(last.FlowTable.Inserted), "count"}
	layers["flowtable.evicted_idle"] = metric{float64(last.FlowTable.EvictedIdle), "count"}
	layers["flowtable.rekeyed"] = metric{float64(last.FlowTable.Rekeyed), "count"}
	layers["pipeline.early_classified"] = metric{float64(last.Ingest.EarlyClassified), "count"}
	layers["pipeline.migrations"] = metric{float64(last.Ingest.Migrations), "count"}
	layers["pipeline.pending_verdicts"] = metric{float64(pending), "count"}
	layers["runtime.gc_cpu_ratio"] = metric{median(plain, func(r *runResult) float64 { return r.gcCPU }), "ratio"}
	layers["runtime.steal_ratio"] = metric{median(plain, stealRatio), "ratio"}

	self := spans.selfTimes()
	layers["server.dispatch_ns"] = metric{self["server.dispatch"].meanNS(), "ns"}
	layers["server.sink_write_ns"] = metric{self["server.sink_write"].meanNS(), "ns"}
	untracedPPS, tracedPPS := median(plain, framesPerSec), median(traced, framesPerSec)
	layers["server.untraced_pkts_per_s"] = metric{untracedPPS, "frames/s"}
	layers["server.traced_pkts_per_s"] = metric{tracedPPS, "frames/s"}
	layers["server.trace_overhead"] = metric{1 - tracedPPS/untracedPPS, "ratio"}
	return layers, nil
}

func framesPerSec(r *runResult) float64 { return float64(r.frames) / r.runTime().Seconds() }

func stealRatio(r *runResult) float64 { return r.stolen.Seconds() / r.wall.Seconds() }

func median(runs []*runResult, f func(*runResult) float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// commit is the VCS revision stamped into the build, when the benchmark
// was built inside a git checkout.
func commit() string {
	bi := obs.ReadBuildInfo()
	if bi.VCSRevision == "" {
		return "unknown"
	}
	if bi.VCSModified {
		return bi.VCSRevision + "+modified"
	}
	return bi.VCSRevision
}
