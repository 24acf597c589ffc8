package server

import (
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
)

// Metric is one /metrics series: its Prometheus name, kind and help text,
// and the /stats JSON path whose value it exposes. The registry below is
// the only place a series is declared: the renderer writes every name,
// HELP and TYPE line from it, and the runbook's metrics table
// (docs/OPERATIONS.md) must equal the table rendered from it.
type Metric struct {
	Name, Kind, Help string
	// Path is the dotted /stats JSON path the series mirrors. A trailing
	// "{label}" placeholder makes a labeled family with one sample per
	// label value substituted into it: the row's fixed vocabulary when it
	// has one (a missing map key reads as 0, so every value keeps its
	// sample), else every index of the array the placeholder indexes. A
	// nil pointer on the path means the series is absent from the snapshot.
	Path string

	labels []string
	// sample, when set, turns the value at Path into (labels, value) pairs
	// for a family that is not one /stats leaf per sample.
	sample func(any) []sample
}

// sample is one exposition line: label name/value pairs and the value.
type sample struct {
	labels []string
	value  float64
}

const (
	counter = "counter"
	gauge   = "gauge"
)

var metricRegistry = []Metric{
	{Name: "videoplat_replay_packets_total", Kind: counter, Path: "replay.packets", Help: "Frames fed to the pipeline"},
	{Name: "videoplat_replay_bytes_total", Kind: counter, Path: "replay.bytes", Help: "Frame bytes fed to the pipeline"},
	{Name: "videoplat_flows_active", Kind: gauge, Path: "flow_table.active", Help: "Flows currently tracked across shards"},
	{Name: "videoplat_flows_inserted_total", Kind: counter, Path: "flow_table.inserted", Help: "Flows ever inserted into the tables"},
	{Name: "videoplat_flows_evicted_total", Kind: counter, Path: "flow_table.evicted_{reason}", labels: []string{"idle", "cap"}, Help: "Flows evicted from the tables, by `reason` (`idle` or `cap`)"},
	{Name: "videoplat_flows_rekeyed_total", Kind: counter, Path: "flow_table.rekeyed", Help: "Flow-table entries moved to a new 5-tuple in place (LRU position and idle clock preserved) by connection migration"},
	{Name: "videoplat_flow_migrations_total", Kind: counter, Path: "ingest.migrations", Help: "QUIC connection migrations absorbed by CID re-keying — each is a live flow whose 5-tuple changed without losing handshake state"},
	{Name: "videoplat_flows_early_classified_total", Kind: counter, Path: "ingest.early_classified", Help: "Flows classified from partial handshake evidence (ECH or 0-RTT) via the provider hint and the `-early-min-margin` gate"},
	{Name: "videoplat_flows_classified_total", Kind: counter, Path: "classified_flows", Help: "Flows classified with a platform prediction"},
	{Name: "videoplat_flows_unknown_total", Kind: counter, Path: "unknown_flows", Help: "Flows rejected by the confidence selector"},
	{Name: "videoplat_flows_finalized_total", Kind: counter, Path: "finalized_flows", Help: "Flow records rolled up (evicted or drained)"},
	{Name: "videoplat_flow_verdicts_total", Kind: counter, Path: "flow_verdicts.{verdict}", labels: verdictLabels(), Help: "Finalized flows by decision outcome (`verdict` label: `classified`, `abstained`, `no-handshake`, …; see § Flow verdicts)"},
	{Name: "videoplat_events_total", Kind: counter, Path: "events.by_type.{type}", labels: eventLabels(), Help: "Ops journal events recorded, by `type` (see `GET /events` for the vocabulary)"},
	{Name: "videoplat_events_dropped_total", Kind: counter, Path: "events.dropped", Help: "Journal events aged out of the bounded ring (the per-type event counters stay monotonic)"},
	{Name: "videoplat_results_dropped_total", Kind: counter, Path: "dropped_results", Help: "Results dropped because the consumer lagged (best-effort channel)"},
	{Name: "videoplat_ingest_batches_total", Kind: counter, Path: "ingest.batches", Help: "Frame batches dispatched to the pipeline"},
	{Name: "videoplat_ingest_frames_ignored_total", Kind: counter, Path: "ingest.ignored_frames", Help: "Frames dropped at ingest (unparseable or non-TCP/UDP)"},
	{Name: "videoplat_ingest_frames_filtered_total", Kind: counter, Path: "ingest.filtered_frames", Help: "Decodable flows dropped at ingest by the port-443 video filter"},
	{Name: "videoplat_ingest_stalls_total", Kind: counter, Path: "ingest.stalls", Help: "Ingest submissions that blocked on a full shard inbox (backpressure, not loss)"},
	{Name: "videoplat_ingest_oversized_handshakes_total", Kind: counter, Path: "ingest.oversized_handshakes", Help: "Flows abandoned because buffered handshake bytes exceeded `-max-hello-bytes`"},
	{Name: "videoplat_rollup_windows_sealed_total", Kind: counter, Path: "rollup.sealed_windows", Help: "Rollup windows sealed and retired to the sink"},
	{Name: "videoplat_telemetry_sink_errors_total", Kind: counter, Path: "rollup.sink_errors", Help: "Rollup sink writes that failed — every failure, not just the first (`/stats` keeps the first error string)"},
	{Name: "videoplat_telemetry_store_windows", Kind: gauge, Path: "rollup.store.tiers", sample: sampler(storeTierSamples), Help: "Sealed windows retained per store tier (`tier` label: `raw` or the bucket width in seconds)"},
	{Name: "videoplat_telemetry_store_evicted_total", Kind: counter, Path: "rollup.store.evicted_{reason}", labels: []string{"count", "age"}, Help: "Windows evicted from the store by retention, by `reason` (`count` or `age`)"},
	{Name: "videoplat_telemetry_store_compactions_total", Kind: counter, Path: "rollup.store.compactions", Help: "Downsampled store buckets sealed"},
	{Name: "videoplat_telemetry_store_loaded_windows", Kind: gauge, Path: "rollup.store.loaded_windows", Help: "Windows reloaded from `-telemetry-persist` at startup"},
	{Name: "videoplat_telemetry_store_persist_errors_total", Kind: counter, Path: "rollup.store.persist_errors", Help: "Failed writes to the store's persistence sink"},
	{Name: "videoplat_model_active_info", Kind: gauge, Path: "models.active_version", sample: sampler(activeVersionSamples), Help: "Active model bank version as the `version` label (value is always 1)"},
	{Name: "videoplat_model_swaps_total", Kind: counter, Path: "models.swaps", Help: "Bank hot-swaps applied to the pipeline"},
	{Name: "videoplat_model_retrains_total", Kind: counter, Path: "models.retrainer.retrains", Help: "Candidate banks trained by the retrainer (with `-auto-retrain`)"},
	{Name: "videoplat_model_promotions_total", Kind: counter, Path: "models.retrainer.promotions", Help: "Candidates promoted after shadow evaluation (with `-auto-retrain`)"},
	{Name: "videoplat_model_rejections_total", Kind: counter, Path: "models.retrainer.rejections", Help: "Candidates rejected by the shadow gate (with `-auto-retrain`)"},
	{Name: "videoplat_replay_done", Kind: gauge, Path: "replay.done", Help: "1 once the replay source is exhausted"},
	{Name: "videoplat_stage_latency_seconds", Kind: gauge, Path: "latency", sample: sampler(latencyQuantileSamples), Help: "Per-stage pipeline latency quantiles since start (`stage` and `quantile` labels; quantile `0.5`, `0.9` or `0.99`)"},
	{Name: "videoplat_stage_latency_max_seconds", Kind: gauge, Path: "latency", sample: sampler(latencyMaxSamples), Help: "Per-stage maximum observed latency since start"},
	{Name: "videoplat_stage_latency_samples_total", Kind: counter, Path: "latency", sample: sampler(latencyCountSamples), Help: "Latency samples recorded per pipeline `stage`"},
	{Name: "videoplat_shard_queue_depth", Kind: gauge, Path: "ingest.queue_depths.{shard}", Help: "Live per-`shard` ingest inbox occupancy in batch messages"},
	{Name: "videoplat_shard_queue_capacity", Kind: gauge, Path: "ingest.queue_capacity", Help: "Per-shard ingest inbox capacity in batch messages"},
	{Name: "videoplat_results_buffered", Kind: gauge, Path: "ingest.results_buffered", Help: "Classified results waiting in the results channel"},
	{Name: "videoplat_results_capacity", Kind: gauge, Path: "ingest.results_capacity", Help: "Results channel capacity"},
	{Name: "videoplat_trace_spans_total", Kind: counter, Path: "trace.{event}", labels: []string{"offered", "admitted", "finished"}, Help: "Flow-lifecycle sampler activity, by `event` (`offered`, `admitted`, `finished`)"},
	{Name: "videoplat_goroutines", Kind: gauge, Path: "runtime.goroutines", Help: "Live goroutine count"},
	{Name: "videoplat_heap_alloc_bytes", Kind: gauge, Path: "runtime.heap_alloc_bytes", Help: "Live heap bytes in use"},
	{Name: "videoplat_heap_objects", Kind: gauge, Path: "runtime.heap_objects", Help: "Live heap object count"},
	{Name: "videoplat_gc_cycles_total", Kind: counter, Path: "runtime.num_gc", Help: "Completed garbage-collection cycles"},
	{Name: "videoplat_gc_pause_seconds_total", Kind: counter, Path: "runtime.gc_pause_total_ms", sample: sampler(secondsFromMs), Help: "Cumulative stop-the-world GC pause time"},
	{Name: "videoplat_uptime_seconds", Kind: gauge, Path: "uptime_seconds", Help: "Seconds since the daemon started"},
	{Name: "videoplat_build_info", Kind: gauge, Path: "build", sample: sampler(buildInfoSamples), Help: "Build identification (`go_version`, `version`, `revision` labels; value is always 1)"},
}

// Metrics lists every series /metrics can emit, in exposition order,
// including those absent from the running configuration (the retrainer
// counters without -auto-retrain).
func Metrics() []Metric { return slices.Clone(metricRegistry) }

func verdictLabels() []string {
	names := pipeline.VerdictNames()
	return names[:]
}

func eventLabels() []string {
	var out []string
	for _, t := range obs.EventTypes() {
		out = append(out, string(t))
	}
	return out
}

// sampler adapts a sampler typed by the value at its row's Path.
func sampler[T any](f func(T) []sample) func(any) []sample {
	return func(v any) []sample { return f(v.(T)) }
}

func storeTierSamples(tiers []telemetry.TierStats) []sample {
	out := make([]sample, len(tiers))
	for i, t := range tiers {
		label := "raw"
		if i > 0 {
			label = strconv.FormatFloat(t.WidthSeconds, 'g', -1, 64)
		}
		out[i] = sample{[]string{"tier", label}, float64(t.Windows)}
	}
	return out
}

func activeVersionSamples(version string) []sample {
	return []sample{{[]string{"version", version}, 1}}
}

func buildInfoSamples(b obs.BuildInfo) []sample {
	return []sample{{[]string{"go_version", b.GoVersion, "version", b.Version, "revision", b.VCSRevision}, 1}}
}

func secondsFromMs(ms float64) []sample { return []sample{{value: ms / 1e3}} }

// latencyQuantileSamples and latencyMaxSamples skip stages that have not
// recorded a sample yet; latencyCountSamples reports every stage.
func latencyQuantileSamples(stages []obs.StageStats) []sample {
	var out []sample
	for _, ls := range stages {
		if ls.Count > 0 {
			out = append(out,
				sample{[]string{"stage", ls.Stage, "quantile", "0.5"}, ls.P50Ms / 1e3},
				sample{[]string{"stage", ls.Stage, "quantile", "0.9"}, ls.P90Ms / 1e3},
				sample{[]string{"stage", ls.Stage, "quantile", "0.99"}, ls.P99Ms / 1e3})
		}
	}
	return out
}

func latencyMaxSamples(stages []obs.StageStats) []sample {
	var out []sample
	for _, ls := range stages {
		if ls.Count > 0 {
			out = append(out, sample{[]string{"stage", ls.Stage}, ls.MaxMs / 1e3})
		}
	}
	return out
}

func latencyCountSamples(stages []obs.StageStats) []sample {
	out := make([]sample, len(stages))
	for i, ls := range stages {
		out[i] = sample{[]string{"stage", ls.Stage}, float64(ls.Count)}
	}
	return out
}

// samples reads the row's samples from the /stats value root.
func (m *Metric) samples(root reflect.Value) []sample {
	at, label, labeled := strings.Cut(m.Path, "{")
	if !labeled {
		v, ok := lookup(root, m.Path)
		switch {
		case !ok:
			return nil
		case m.sample != nil:
			return m.sample(v.Interface())
		}
		return []sample{{value: number(v)}}
	}
	label = strings.TrimSuffix(label, "}")
	values := m.labels
	if values == nil {
		arr, ok := lookup(root, strings.TrimSuffix(at, "."))
		if !ok {
			return nil
		}
		for i := range arr.Len() {
			values = append(values, strconv.Itoa(i))
		}
	}
	out := make([]sample, 0, len(values))
	for _, val := range values {
		v, ok := lookup(root, at+val)
		if !ok {
			return nil
		}
		out = append(out, sample{[]string{label, val}, number(v)})
	}
	return out
}

// lookup resolves a dotted /stats JSON path in v: struct fields by their
// json names, map entries by key (a missing key reads as zero) and slice
// elements by index. It reports false when a nil pointer lies on the path.
func lookup(v reflect.Value, path string) (reflect.Value, bool) {
	for _, seg := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return v, false
			}
			v = v.Elem()
		}
		switch v.Kind() {
		case reflect.Struct:
			v = jsonField(v, seg)
		case reflect.Map:
			if e := v.MapIndex(reflect.ValueOf(seg)); e.IsValid() {
				v = e
			} else {
				v = reflect.Zero(v.Type().Elem())
			}
		case reflect.Slice:
			i, err := strconv.Atoi(seg)
			if err != nil {
				panic(fmt.Sprintf("metrics: %q indexes a /stats array with %q", path, seg))
			}
			v = v.Index(i)
		default:
			panic(fmt.Sprintf("metrics: %q descends into a /stats %s", path, v.Kind()))
		}
	}
	return v, true
}

func jsonField(v reflect.Value, name string) reflect.Value {
	t := v.Type()
	for i := range t.NumField() {
		if tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); tag == name {
			return v.Field(i)
		}
	}
	panic(fmt.Sprintf("metrics: /stats %s has no field %q", t, name))
}

func number(v reflect.Value) float64 {
	switch {
	case v.CanUint():
		return float64(v.Uint())
	case v.CanInt():
		return float64(v.Int())
	case v.CanFloat():
		return v.Float()
	case v.Kind() == reflect.Bool && v.Bool():
		return 1
	case v.Kind() == reflect.Bool:
		return 0
	}
	panic(fmt.Sprintf("metrics: a /stats %s is not a number", v.Type()))
}

// appendMetrics renders st in the Prometheus text format. It is the only
// code that writes a series name; families with no samples are omitted.
func appendMetrics(b []byte, st *Stats) []byte {
	root := reflect.ValueOf(st).Elem()
	for i := range metricRegistry {
		m := &metricRegistry[i]
		samples := m.samples(root)
		if len(samples) == 0 {
			continue
		}
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Kind)
		for _, s := range samples {
			b = append(b, m.Name...)
			sep := byte('{')
			for j := 0; j < len(s.labels); j += 2 {
				b = append(b, sep)
				sep = ','
				b = append(b, s.labels[j]...)
				b = append(b, '=')
				b = strconv.AppendQuote(b, s.labels[j+1])
			}
			if len(s.labels) > 0 {
				b = append(b, '}')
			}
			b = append(b, ' ')
			b = strconv.AppendFloat(b, s.value, 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	return b
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(appendMetrics(nil, &st))
}
