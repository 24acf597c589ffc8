package main

import (
	"fmt"
	"runtime"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/ml"
	"videoplat/internal/obs"
	"videoplat/internal/packet"
	"videoplat/internal/pipeline"
	"videoplat/internal/quicproto"
	"videoplat/internal/telemetry"
	"videoplat/internal/tlsproto"
	"videoplat/internal/tracegen"
)

// classifyBatch is the batch width of the layer pass's batched calls, the
// width a full replay batch gives the daemon's shards at most.
const classifyBatch = 64

var objectives = [3]pipeline.Objective{pipeline.PlatformObjective, pipeline.DeviceObjective, pipeline.AgentObjective}

// assembled is one flow with a ClientHello and the compiled forms that
// serve its provider and transport.
type assembled struct {
	info *features.HandshakeInfo
	prov fingerprint.Provider
	tr   fingerprint.Transport
	enc  *features.CompiledEncoder
	cfs  [3]*ml.CompiledForest
}

// servingForms looks up the compiled encoder and the three objectives'
// compiled forests for (prov, tr); ok is false when any is missing.
func servingForms(bank *pipeline.Bank, prov fingerprint.Provider, tr fingerprint.Transport) (enc *features.CompiledEncoder, cfs [3]*ml.CompiledForest, ok bool) {
	for i, obj := range objectives {
		m := bank.Model(prov, tr, obj)
		if m == nil || m.CompiledForest() == nil {
			return nil, cfs, false
		}
		cfs[i] = m.CompiledForest()
	}
	enc = bank.Model(prov, tr, pipeline.PlatformObjective).Compiled()
	return enc, cfs, enc != nil
}

// newStore is the daemon's default store shape: 10x and 60x downsampling
// tiers over 1-minute windows.
func newStore() *telemetry.Store {
	return telemetry.NewStore(telemetry.StoreConfig{Tiers: []time.Duration{10 * time.Minute, 60 * time.Minute}})
}

// helloInput is one input to a ClientHello parser: a TCP record stream or
// the CRYPTO bytes of a QUIC Initial.
type helloInput struct {
	record bool
	data   []byte
}

// counter measures the heap allocations of a loop of calls.
type counter struct{ m0 runtime.MemStats }

func startCount() *counter {
	c := &counter{}
	runtime.ReadMemStats(&c.m0)
	return c
}

// per returns allocations and allocated bytes per call over calls calls.
func (c *counter) per(calls int) (allocs, bytes float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if calls == 0 {
		return 0, 0
	}
	return float64(m1.Mallocs-c.m0.Mallocs) / float64(calls), float64(m1.TotalAlloc-c.m0.TotalAlloc) / float64(calls)
}

// layerPass feeds one pass of the workload's flows through every layer's
// public entry points in spine order, one span per call, and then counts
// each layer's allocations in a separate loop over the same inputs.
func layerPass(bank *pipeline.Bank, w *workload, records []*pipeline.FlowRecord, spans *spanLog) (map[string]metric, error) {
	var (
		ps      packet.Parser
		parsed  packet.Parsed
		sc      pipeline.ClassifyScratch
		esc     features.EncodeScratch
		vec     []float64
		proba   []float64
		frames  [][]byte
		clients [][][]byte
		inits   [][]byte
		hellos  []helloInput
		flows   []assembled
	)
	for fi, ff := range w.flowFrames() {
		truth := w.flows[fi]
		id := int32(fi + 1)
		fs := spans.begin("layer.flow", 0, id, spans.now())
		var client [][]byte
		for _, idx := range ff {
			f := w.ref(idx)
			data := w.bytesOf(f)
			frames = append(frames, data)
			t0 := spans.now()
			err := ps.Parse(data, &parsed)
			spans.add("packet.parse", fs, id, t0, spans.now())
			if err == nil && f.c2s {
				client = append(client, data)
			}
		}
		clients = append(clients, client)

		name := "pipeline.assembly.tcp"
		if truth.tr == fingerprint.QUIC {
			name = "pipeline.assembly.quic"
		}
		t0 := spans.now()
		info, asmErr := pipeline.ExtractFrames(client)
		spans.add(name, fs, id, t0, spans.now())
		// The parsers run inside ExtractFrames, where the benchmark has no
		// boundary, so they are re-run here on the same bytes. The re-runs
		// are the assembly span's siblings, not its children: the assembly
		// span is the gross ExtractFrames time, parsers included.
		for _, data := range client {
			if ps.Parse(data, &parsed) != nil || len(parsed.Payload) == 0 {
				continue
			}
			payload := parsed.Payload
			var hi helloInput
			switch {
			case parsed.Has(packet.LayerTCP):
				hi = helloInput{record: true, data: payload}
			case parsed.Has(packet.LayerUDP) && quicproto.IsLongHeader(payload) &&
				quicproto.LongHeaderType(payload) == quicproto.TypeInitial:
				t0 := spans.now()
				init, err := quicproto.ParseInitial(payload)
				spans.add("quicproto.initial", fs, id, t0, spans.now())
				inits = append(inits, payload)
				if err != nil || init.CryptoOffset != 0 {
					continue
				}
				hi = helloInput{data: init.CryptoData}
			default:
				continue
			}
			t0 := spans.now()
			err := parseHello(hi)
			spans.add("tlsproto.hello", fs, id, t0, spans.now())
			hellos = append(hellos, hi)
			if err == nil {
				break
			}
		}
		if asmErr == nil {
			tr := fingerprint.TCP
			if info.QUIC {
				tr = fingerprint.QUIC
			}
			// ECH flows carry no provider SNI; the daemon classifies them
			// under the server-address hint, which is the flow's provider.
			if enc, cfs, ok := servingForms(bank, truth.prov, tr); ok {
				t0 := spans.now()
				vec = enc.EncodeInto(vec, info, &esc)
				spans.add("features.encode", fs, id, t0, spans.now())
				for _, cf := range cfs {
					t0 := spans.now()
					cf.PredictInto(vec, &proba)
					spans.add("ml.predict_row", fs, id, t0, spans.now())
				}
				t0 = spans.now()
				_, err := bank.ClassifyHandshake(truth.prov, tr, info, &sc)
				spans.add("bank.classify_single", fs, id, t0, spans.now())
				if err != nil {
					return nil, fmt.Errorf("classify %s/%s: %w", truth.prov, tr, err)
				}
				flows = append(flows, assembled{info, truth.prov, tr, enc, cfs})
			}
		}
		spans.end(fs, spans.now())
	}

	// Batched classification: the assembled flows of each (provider,
	// transport), in chunks of classifyBatch.
	type chunk struct {
		assembled // the first flow's provider, transport and forms
		infos     []*features.HandshakeInfo
		rows      []float64
	}
	var chunks []*chunk
	open := map[[2]int]*chunk{}
	for _, f := range flows {
		k := [2]int{int(f.prov), int(f.tr)}
		c := open[k]
		if c == nil || len(c.infos) == classifyBatch {
			c = &chunk{assembled: f}
			open[k] = c
			chunks = append(chunks, c)
		}
		c.infos = append(c.infos, f.info)
		vec = f.enc.EncodeInto(vec, f.info, &esc)
		c.rows = append(c.rows, vec...)
	}
	preds := make([]pipeline.Prediction, classifyBatch)
	bproba := make([][]float64, len(objectives))
	for ci, c := range chunks {
		bs := spans.begin("layer.batch", 0, 0, spans.now())
		t0 := spans.now()
		if err := bank.ClassifyBatch(c.prov, c.tr, c.infos, &sc, preds); err != nil {
			return nil, fmt.Errorf("classify batch %d: %w", ci, err)
		}
		spans.add("bank.classify_batch", bs, 0, t0, spans.now())
		stride := len(c.rows) / len(c.infos)
		for oi, cf := range c.cfs {
			t0 := spans.now()
			bproba[oi] = cf.PredictBatchInto(c.rows, stride, bproba[oi])
			spans.add("ml.predict_batch", bs, 0, t0, spans.now())
		}
		spans.end(bs, spans.now())
	}

	// Rollup fold and store query over the reference replay's records.
	store := newStore()
	roll := telemetry.NewRollup(time.Minute, store)
	rs := spans.begin("layer.rollup", 0, 0, spans.now())
	for _, rec := range records {
		t0 := spans.now()
		roll.Add(rec)
		spans.add("telemetry.rollup_add", rs, 0, t0, spans.now())
	}
	roll.Flush()
	spans.end(rs, spans.now())
	groups := []string{telemetry.GroupTotal, telemetry.GroupProvider, telemetry.GroupPlatform, telemetry.GroupModel}
	qs := spans.begin("layer.query", 0, 0, spans.now())
	for i := 0; i < 4; i++ {
		for _, g := range groups {
			t0 := spans.now()
			if _, err := store.Query(time.Time{}, time.Time{}, 0, g); err != nil {
				return nil, fmt.Errorf("store query: %w", err)
			}
			spans.add("telemetry.store_query", qs, 0, t0, spans.now())
		}
	}
	spans.end(qs, spans.now())

	// Allocation counts: the same calls again, warm and without spans.
	m := map[string]metric{}
	c := startCount()
	for _, data := range frames {
		_ = ps.Parse(data, &parsed)
	}
	a, _ := c.per(len(frames))
	m["packet.parse_allocs"] = metric{a, "count"}

	c = startCount()
	for _, client := range clients {
		_, _ = pipeline.ExtractFrames(client)
	}
	a, _ = c.per(len(clients))
	m["assembly.allocs"] = metric{a, "count"}

	c = startCount()
	for _, p := range inits {
		_, _ = quicproto.ParseInitial(p)
	}
	a, b := c.per(len(inits))
	m["quicproto.initial_allocs"] = metric{a, "count"}
	m["quicproto.initial_bytes"] = metric{b, "B"}

	c = startCount()
	for _, h := range hellos {
		_ = parseHello(h)
	}
	a, _ = c.per(len(hellos))
	m["tlsproto.hello_allocs"] = metric{a, "count"}

	c = startCount()
	for _, f := range flows {
		vec = f.enc.EncodeInto(vec, f.info, &esc)
	}
	a, _ = c.per(len(flows))
	m["features.encode_allocs"] = metric{a, "count"}

	c = startCount()
	calls := 0
	for _, ch := range chunks {
		stride := len(ch.rows) / len(ch.infos)
		for oi, cf := range ch.cfs {
			for r := 0; r < len(ch.infos); r++ {
				cf.PredictInto(ch.rows[r*stride:(r+1)*stride], &proba)
			}
			bproba[oi] = cf.PredictBatchInto(ch.rows, stride, bproba[oi])
			calls += len(ch.infos) + 1
		}
	}
	a, _ = c.per(calls)
	m["ml.predict_allocs"] = metric{a, "count"}

	c = startCount()
	for _, f := range flows {
		_, _ = bank.ClassifyHandshake(f.prov, f.tr, f.info, &sc)
	}
	for _, ch := range chunks {
		_ = bank.ClassifyBatch(ch.prov, ch.tr, ch.infos, &sc, preds)
	}
	a, _ = c.per(2 * len(flows))
	m["bank.classify_allocs"] = metric{a, "count"}

	c = startCount()
	roll2 := telemetry.NewRollup(time.Minute, newStore())
	for _, rec := range records {
		roll2.Add(rec)
	}
	a, _ = c.per(len(records))
	m["telemetry.rollup_allocs"] = metric{a, "count"}

	self := spans.selfTimes()
	perCall := func(name string) float64 { return self[name].meanNS() }
	perRow := func(name string, rows int) float64 {
		if rows == 0 {
			return 0
		}
		return float64(self[name].SelfNS) / float64(rows)
	}
	m["packet.parse_ns"] = metric{perCall("packet.parse"), "ns"}
	m["assembly.tcp_ns"] = metric{perCall("pipeline.assembly.tcp"), "ns"}
	m["assembly.quic_ns"] = metric{perCall("pipeline.assembly.quic"), "ns"}
	m["quicproto.initial_ns"] = metric{perCall("quicproto.initial"), "ns"}
	m["tlsproto.hello_ns"] = metric{perCall("tlsproto.hello"), "ns"}
	m["features.encode_ns"] = metric{perCall("features.encode"), "ns"}
	m["ml.predict_row_ns"] = metric{perRow("ml.predict_row", len(flows)), "ns"}
	m["ml.predict_batch_row_ns"] = metric{perRow("ml.predict_batch", len(flows)), "ns"}
	m["bank.classify_single_ns"] = metric{perCall("bank.classify_single"), "ns"}
	m["bank.classify_batch_ns"] = metric{perRow("bank.classify_batch", len(flows)), "ns"}
	m["telemetry.rollup_add_ns"] = metric{perCall("telemetry.rollup_add"), "ns"}
	m["telemetry.store_query_ns"] = metric{perCall("telemetry.store_query"), "ns"}
	return m, nil
}

func parseHello(h helloInput) error {
	if h.record {
		_, err := tlsproto.ParseRecord(h.data)
		return err
	}
	_, err := tlsproto.Parse(h.data)
	return err
}

// ingestPass replays the workload straight into a Sharded pipeline with
// the daemon's limits, in replay-sized batches, with vpserve's observer and
// tracer attached or detached. It returns the wall time per frame from the
// first batch to the drained Close.
func ingestPass(bank *pipeline.Bank, w *workload, shards int, observed bool, spans *spanLog) float64 {
	cfg := pipeline.Config{
		MaxFlows:     max(maxFlows/shards, 1),
		IdleTimeout:  idleTimeout,
		ProviderHint: tracegen.ProviderOfAddr,
		OnEvict:      func(*pipeline.FlowRecord, flowtable.Reason) {},
	}
	name := "ingest.run"
	if observed {
		name = "ingest.run_obs"
		cfg.Observer = obs.NewPipelineObserver()
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{})
	}
	s := pipeline.NewShardedWithConfig(bank, shards, cfg)
	drained := make(chan struct{})
	go func() {
		for range s.Results() {
		}
		close(drained)
	}()
	batch := make([]pipeline.IngestPacket, 0, replayBatch)
	root := spans.begin(name, 0, 0, spans.now())
	start := time.Now()
	for i, n := 0, w.Len(); i < n; i++ {
		ts, data := w.At(i)
		batch = append(batch, pipeline.IngestPacket{TS: time.Unix(0, ts).UTC(), Data: data})
		if len(batch) == replayBatch || i == n-1 {
			t0 := spans.now()
			s.HandlePacketBatch(batch)
			spans.add("ingest.batch", root, 0, t0, spans.now())
			batch = batch[:0]
		}
	}
	s.Close()
	wall := time.Since(start)
	spans.end(root, spans.now())
	<-drained
	return float64(wall.Nanoseconds()) / float64(w.Len())
}
