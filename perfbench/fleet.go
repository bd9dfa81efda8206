package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/hierarchy"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powerapi"
	"repro/internal/tracing"
	"repro/internal/units"
)

// Coordinator settings as cmd/powercoord ships them (its flag defaults).
const (
	coordInterval   = 5 * time.Second
	coordFloorFrac  = 0.5
	coordTimeout    = 2 * time.Second
	coordRetries    = 2
	coordQuarantine = 3
	budgetSlack     = 1e-6
)

// handlerMeter wraps an agent's http.Handler in traced passes: it times
// each request inside the server and counts the bytes it moved. The
// status replies it captures are re-run through the codec after the
// pass to time encode and decode apart from the transport.
type handlerMeter struct {
	inner http.Handler
	spans *spanLog
	round *atomic.Uint64 // the benchmark's current round span, parent of handler spans
	step  *atomic.Uint64 // the benchmark's current round number

	mu          sync.Mutex
	statusUS    []float64
	statusBytes []float64
	deltas      int
	grantUS     []float64
	grantBytes  []float64
	bodies      [][]byte
}

const maxCapturedBodies = 4096

type countingBody struct {
	io.ReadCloser
	n int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

type captureWriter struct {
	http.ResponseWriter
	buf []byte
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return w.ResponseWriter.Write(p)
}

func (h *handlerMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &captureWriter{ResponseWriter: w}
	t := time.Now()
	h.inner.ServeHTTP(cw, r)
	el := time.Since(t)
	status := strings.HasSuffix(r.URL.Path, "/status")
	name := "powerapi.grant_handle"
	if status {
		name = "powerapi.status_handle"
	}
	h.spans.add(h.round.Load(), name, h.step.Load(), t, el)
	h.mu.Lock()
	defer h.mu.Unlock()
	if status {
		h.statusUS = append(h.statusUS, micros(el))
		h.statusBytes = append(h.statusBytes, float64(len(cw.buf)))
		q := r.URL.Query()
		if q.Get("status") == powerapi.StatusEncDelta && q.Get("resync") == "" {
			h.deltas++
		}
		if len(h.bodies) < maxCapturedBodies {
			h.bodies = append(h.bodies, cw.buf)
		}
		return
	}
	h.grantUS = append(h.grantUS, micros(el))
	h.grantBytes = append(h.grantBytes, float64(body.n+len(cw.buf)))
}

// server is one loopback HTTP listener the benchmark started.
type server struct {
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, ln.Addr().String(), nil
}

// close stops the server and waits for its serving goroutine to exit.
func (s *server) close() {
	_ = s.srv.Close() // only reports listener-close errors; nothing to recover
	<-s.done
}

// coordRig is one coordinator workload after set-up: the shipped round,
// the untimed work between rounds, and the views the checks read.
type coordRig struct {
	budget    units.Watts // full budget; cuts are fractions of it
	round     func(ctx context.Context) error
	between   func(res *passResult)
	setBudget func(ctx context.Context, b units.Watts) error
	committed func() units.Watts
	caps      func() units.Watts    // Σ caps the nodes or leaves enforce now
	power     func() units.Watts    // Σ power the budget is shared over
	tierCheck func() error          // conservation below the top tier, if any
	checks    func(res *passResult) // end-of-pass checks, if any
	outcomes  func(res *passResult)
	tracers   []*tracing.Tracer // every coordinator's tracer, the top tier first
	servers   []*server
	close     func()

	// rowsDur and rootDur split tree_1024's last round into its phases.
	rowsDur, rootDur time.Duration
}

// coordScenario is one coordinator workload.
type coordScenario struct {
	warmup, measured int // rounds
	build            func(seed int64, wrap func(http.Handler) http.Handler) (*coordRig, error)
}

// budgetEvery is the round period of the budget schedule: every tenth
// round alternately cuts the budget or restores it. The seed orders
// the cut depths, which step evenly through 70–90 % of the budget, so
// every seed makes cuts of the same depths in a different order.
const budgetEvery = 10

func budgetSchedule(seed int64, rounds int) []float64 {
	n := rounds / (2 * budgetEvery)
	if rounds%(2*budgetEvery) >= budgetEvery {
		n++
	}
	cuts := make([]float64, n)
	for i, k := range newRand(seed ^ 0x5eed).Perm(n) {
		cuts[i] = 0.70
		if n > 1 {
			cuts[i] += 0.2 * float64(k) / float64(n-1)
		}
	}
	return cuts
}

// runCoordPass sets up one coordinator workload and runs closed-loop
// rounds back to back, applying the budget schedule.
func runCoordPass(sc coordScenario, seed int64, traced bool, spans *spanLog) (passResult, error) {
	res := passResult{outcome: map[string]float64{}, layers: map[string]float64{}}
	ctx := context.Background()
	var roundSpan, roundStep atomic.Uint64
	var meters []*handlerMeter
	wrap := func(h http.Handler) http.Handler {
		if !traced {
			return h
		}
		m := &handlerMeter{inner: h, spans: spans, round: &roundSpan, step: &roundStep}
		meters = append(meters, m)
		return m
	}
	began := time.Now()
	rig, err := sc.build(seed, wrap)
	if err != nil {
		return res, err
	}
	defer rig.close()
	for i := 0; i < sc.warmup; i++ {
		rig.between(&res)
		res.attempted++
		if err := rig.round(ctx); err != nil {
			res.failOp("warm-up round %d: %v", i+1, err)
		}
	}
	res.setup = time.Since(began)
	for _, m := range meters {
		m.mu.Lock()
		m.statusUS, m.statusBytes, m.grantUS, m.grantBytes, m.bodies, m.deltas = nil, nil, nil, nil, nil, 0
		m.mu.Unlock()
	}
	drain := newTracerDrain(rig.tracers)
	drain.skip()

	cuts := budgetSchedule(seed, sc.measured)
	var (
		pm     phaseMeter
		used   []float64
		rowsMS []float64
		rootMS []float64
		rounds uint64
	)
	checkCaps := func(when string) {
		if c, b := rig.caps(), rig.committed(); c > b+budgetSlack {
			res.breakCheck("%s: Σ caps %.3f W exceed committed budget %.3f W", when, float64(c), float64(b))
		}
		if rig.tierCheck != nil {
			if err := rig.tierCheck(); err != nil {
				res.breakCheck("%s: %v", when, err)
			}
		}
	}
	pm.begin(traced)
	for r := 0; r < sc.measured; r++ {
		rounds++
		id := spans.newID()
		roundSpan.Store(id)
		roundStep.Store(rounds)
		bt := time.Now()
		rig.between(&res)
		bd := time.Since(bt)
		pm.enter()
		t := time.Now()
		err := rig.round(ctx)
		el := time.Since(t)
		cpu := pm.leave()
		res.attempted++
		if err != nil {
			res.failOp("round %d: %v", rounds, err)
		} else {
			res.steps = append(res.steps, micros(el))
			res.stepCPU = append(res.stepCPU, micros(cpu))
		}
		checkCaps(fmt.Sprintf("after round %d", rounds))
		used = append(used, float64(rig.power())/float64(rig.committed()))
		if traced {
			spans.record(span{ID: id, Name: "round", Step: rounds, Start: spans.at(bt), Dur: int64(time.Since(bt))})
			spans.add(id, "between_rounds", rounds, bt, bd)
			spans.add(id, "tier.step", rounds, t, el)
			if rig.rowsDur > 0 {
				rowsMS = append(rowsMS, float64(rig.rowsDur)/1e6)
				rootMS = append(rootMS, float64(rig.rootDur)/1e6)
				spans.add(id, "hierarchy.rows", rounds, t, rig.rowsDur)
				spans.add(id, "hierarchy.root", rounds, t.Add(rig.rowsDur), rig.rootDur)
			}
			drain.collect(spans, id, rounds)
		}
		if (r+1)%budgetEvery != 0 {
			continue
		}
		idx := (r + 1) / budgetEvery
		res.attempted++
		if idx%2 == 1 && (idx-1)/2 < len(cuts) {
			lower := rig.budget * units.Watts(cuts[(idx-1)/2])
			ct := time.Now()
			err := rig.setBudget(ctx, lower)
			cd := time.Since(ct)
			if err != nil {
				res.failOp("cut to %.1f W: %v", float64(lower), err)
				continue
			}
			// The cut has landed once Σ caps fits the new budget; a shrink
			// the children acknowledged fits on return, anything else needs
			// more rounds.
			extra := 0
			for rig.caps() > lower+budgetSlack && extra < 5 {
				rt := time.Now()
				res.attempted++
				if err := rig.round(ctx); err != nil {
					res.failOp("round after cut: %v", err)
				}
				cd += time.Since(rt)
				extra++
			}
			checkCaps(fmt.Sprintf("after cut %d", idx))
			if rig.caps() > lower+budgetSlack {
				res.breakCheck("cut %d to %.1f W never landed", idx, float64(lower))
				continue
			}
			res.cuts = append(res.cuts, micros(cd))
			spans.add(id, "cut", rounds, ct, cd)
		} else {
			if err := rig.setBudget(ctx, rig.budget); err != nil {
				res.failOp("restore to %.1f W: %v", float64(rig.budget), err)
			}
			checkCaps(fmt.Sprintf("after restore %d", idx))
		}
	}
	pm.end()
	res.absorb(&pm)
	if rig.checks != nil {
		rig.checks(&res)
	}
	res.outcome["budget_used_frac"] = mean(used)
	rig.outcomes(&res)
	if traced {
		res.layers["cluster.rpc_failures"] = float64(drain.failures)
		drain.summarize(&res)
		meterLayers(&res, meters)
		if len(rowsMS) > 0 {
			res.layers["hierarchy.rows_ms"] = median(rowsMS)
			res.layers["hierarchy.root_ms"] = median(rootMS)
		}
	}
	return res, nil
}

// meterLayers folds the handler meters into the powerapi layer metrics.
func meterLayers(res *passResult, meters []*handlerMeter) {
	var statusUS, statusBytes, grantUS, grantBytes []float64
	var bodies [][]byte
	deltas := 0
	for _, m := range meters {
		m.mu.Lock()
		statusUS = append(statusUS, m.statusUS...)
		statusBytes = append(statusBytes, m.statusBytes...)
		grantUS = append(grantUS, m.grantUS...)
		grantBytes = append(grantBytes, m.grantBytes...)
		bodies = append(bodies, m.bodies...)
		deltas += m.deltas
		m.mu.Unlock()
	}
	if len(statusUS) > 0 {
		res.layers["powerapi.status_handle_us"] = median(statusUS)
		res.layers["powerapi.status_bytes"] = mean(statusBytes)
		res.layers["powerapi.delta_frac"] = float64(deltas) / float64(len(statusUS))
		if rpc, ok := res.layers["cluster.report_rpc_us"]; ok {
			res.layers["cluster.transport_us"] = rpc - median(statusUS)
		}
	}
	if len(grantUS) > 0 {
		res.layers["powerapi.grant_handle_us"] = median(grantUS)
		res.layers["powerapi.grant_bytes"] = mean(grantBytes)
	}
	var dec, enc []float64
	for _, b := range bodies {
		t := time.Now()
		_, msg, err := powerapi.Unmarshal(b)
		d := time.Since(t)
		if err != nil {
			res.breakCheck("captured status reply does not decode: %v", err)
			return
		}
		t = time.Now()
		if _, err := powerapi.Marshal(msg); err != nil {
			res.breakCheck("decoded status reply does not re-encode: %v", err)
			return
		}
		enc = append(enc, micros(time.Since(t)))
		dec = append(dec, micros(d))
	}
	if len(dec) > 0 {
		res.layers["powerapi.decode_us"] = median(dec)
		res.layers["powerapi.encode_us"] = median(enc)
	}
}

// tracerDrain reads the coordinators' own round spans as rounds finish,
// before their rings wrap.
type tracerDrain struct {
	tracers  []*tracing.Tracer
	offsets  []time.Time // wall time of each tracer's epoch
	seen     []uint64
	failures int

	reportMS, rpcUS, planUS, grantMS []float64
	grantRounds, topRounds           int
}

func newTracerDrain(ts []*tracing.Tracer) *tracerDrain {
	d := &tracerDrain{tracers: ts, offsets: make([]time.Time, len(ts)), seen: make([]uint64, len(ts))}
	for i, t := range ts {
		d.offsets[i] = time.Now().Add(-t.Now())
	}
	return d
}

// skip marks everything recorded so far (set-up rounds) as seen.
func (d *tracerDrain) skip() {
	for i, t := range d.tracers {
		for _, r := range t.Rounds() {
			if r.ID > d.seen[i] {
				d.seen[i] = r.ID
			}
		}
	}
}

// collect folds every new round of every tracer into the layer samples
// and the span log. Tracer 0 is the top tier, whose report and grant
// spans cross the HTTP transport.
func (d *tracerDrain) collect(spans *spanLog, parent, step uint64) {
	for i, t := range d.tracers {
		for _, r := range t.Rounds() {
			if r.ID <= d.seen[i] {
				continue
			}
			d.seen[i] = r.ID
			d.round(i, r, spans, parent, step)
		}
	}
}

func (d *tracerDrain) round(i int, r tracing.Round, spans *spanLog, parent, step uint64) {
	at := func(off time.Duration) time.Time { return d.offsets[i].Add(off) }
	var rep0, rep1, gr0, gr1 time.Duration = -1, -1, -1, -1
	grants := 0
	for _, s := range r.Spans {
		if s.Err != "" {
			d.failures++
		}
		switch s.Name {
		case "report":
			if rep0 < 0 || s.Start < rep0 {
				rep0 = s.Start
			}
			if s.End > rep1 {
				rep1 = s.End
			}
			if i == 0 {
				d.rpcUS = append(d.rpcUS, micros(s.Latency()))
			}
		case "plan":
			d.planUS = append(d.planUS, micros(s.Latency()))
			spans.add(parent, "cluster.plan", step, at(s.Start), s.Latency())
		case "grant":
			grants++
			if gr0 < 0 || s.Start < gr0 {
				gr0 = s.Start
			}
			if s.End > gr1 {
				gr1 = s.End
			}
		}
	}
	if i != 0 {
		if rep0 >= 0 {
			spans.add(parent, "cluster.report", step, at(rep0), rep1-rep0)
		}
		return
	}
	d.topRounds++
	if rep0 >= 0 {
		d.reportMS = append(d.reportMS, float64(rep1-rep0)/1e6)
		rid := spans.add(parent, "cluster.report", step, at(rep0), rep1-rep0)
		for _, s := range r.Spans {
			if s.Name == "report" {
				spans.add(rid, "cluster.report_rpc", step, at(s.Start), s.Latency())
			}
		}
	}
	if grants > 0 {
		d.grantRounds++
		d.grantMS = append(d.grantMS, float64(gr1-gr0)/1e6)
		gid := spans.add(parent, "cluster.grant", step, at(gr0), gr1-gr0)
		for _, s := range r.Spans {
			if s.Name == "grant" {
				spans.add(gid, "cluster.grant_rpc", step, at(s.Start), s.Latency())
			}
		}
	}
}

func (d *tracerDrain) summarize(res *passResult) {
	if len(d.reportMS) > 0 {
		res.layers["cluster.report_ms"] = median(d.reportMS)
		res.layers["cluster.report_rpc_us"] = median(d.rpcUS)
	}
	if len(d.planUS) > 0 {
		res.layers["cluster.plan_us"] = median(d.planUS)
	}
	if len(d.grantMS) > 0 {
		res.layers["cluster.grant_ms"] = median(d.grantMS)
	}
	if d.topRounds > 0 {
		res.layers["cluster.grant_rounds_frac"] = float64(d.grantRounds) / float64(d.topRounds)
	}
}

// fleetScenario is fleet_64: one flat room tier, configured as
// cmd/powercoord ships it, over full powerd node stacks behind loopback
// HTTP, polled with piggybacked metrics and delta-encoded status.
func fleetScenario(nodes, measured int) coordScenario {
	return coordScenario{
		warmup:   3,
		measured: measured,
		build: func(seed int64, wrap func(http.Handler) http.Handler) (*coordRig, error) {
			return buildFleet(seed, nodes, wrap)
		},
	}
}

// Fleet node settings. Each node is cmd/powerd with -policy frequency
// -limit 50 -interval 10ms -node-name nN -listen 127.0.0.1:0; the
// flight rings are sized with -flight-cap so 64 nodes fit one process.
const (
	fleetNodeWatts    = 40 // room budget per node
	fleetFlightCap    = 2048
	fleetIntervals    = 5 // node control intervals between rounds
	fleetNodeLimit    = 50
	fleetNodeInterval = 10 * time.Millisecond
)

func buildFleet(seed int64, nodes int, wrap func(http.Handler) http.Handler) (rig *coordRig, err error) {
	rig = &coordRig{budget: units.Watts(fleetNodeWatts * nodes)}
	var stacks []*nodeStack
	var agents []*powerapi.Agent
	rig.close = func() {
		for _, s := range rig.servers {
			s.close()
		}
		for _, a := range agents {
			a.Close()
		}
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	rng := newRand(seed)
	ts := make([]cluster.Transport, nodes)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("n%02d", i)
		n, err := newNodeStack(nodeConfig{
			chip: platform.Skylake(), specs: specMix(rng), policy: "frequency",
			limit: fleetNodeLimit, interval: fleetNodeInterval, flightCap: fleetFlightCap,
		}, nil)
		if err != nil {
			return nil, err
		}
		tracer := tracing.New(name, 0)
		agent, err := powerapi.NewAgent(powerapi.AgentConfig{
			Name: name, Daemon: n.d, PolicyName: "frequency",
			Metrics: n.reg, Flight: n.rec, Tracer: tracer, Ledger: n.led,
		})
		if err != nil {
			return nil, err
		}
		agents = append(agents, agent)
		srv := obs.New(n.reg, n.journal, obs.DaemonStatusFunc(n.d),
			obs.WithLedger(n.led), obs.WithFlight(n.rec),
			obs.WithHandler(powerapi.PathPrefix, wrap(agent.Handler())), obs.WithRounds(tracer))
		s, addr, err := serve(srv.Handler())
		if err != nil {
			return nil, err
		}
		rig.servers = append(rig.servers, s)
		stacks = append(stacks, n)
		ts[i] = cluster.NewHTTPNode(name, addr, "room").CollectMetrics().DeltaStatus()
	}
	// Every node runs before the room tier's first poll, as live
	// daemons would.
	advance := func(res *passResult) {
		for i, n := range stacks {
			for k := 0; k < fleetIntervals; k++ {
				n.advance()
				res.attempted++
				if err := n.iterate(); err != nil {
					res.failOp("node %d interval: %v", i, err)
				}
			}
		}
	}
	var boot passResult
	advance(&boot)
	if boot.failed > 0 {
		return nil, fmt.Errorf("node start-up: %s", boot.errors[0])
	}
	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg, "powercoord")
	tracer := tracing.New("room", 0)
	tier, err := hierarchy.NewTier(hierarchy.TierConfig{
		Name: "room", Level: "room", Budget: rig.budget, Fallback: rig.budget,
		FloorFraction: coordFloorFrac, Interval: coordInterval, NodeTimeout: coordTimeout,
		Retries: coordRetries, QuarantineAfter: coordQuarantine,
		Metrics: reg, Tracer: tracer, Fleet: cluster.NewFleet(rig.budget, reg),
	}, ts)
	if err != nil {
		return nil, err
	}
	prevClose := rig.close
	rig.close = func() { tier.Close(); prevClose() }
	rig.tracers = []*tracing.Tracer{tracer}
	rig.between = advance
	rig.round = tier.Step
	rig.setBudget = tier.SetBudget
	rig.committed = func() units.Watts { return tier.Coordinator().Budget() }
	rig.caps = func() units.Watts {
		var s units.Watts
		for _, n := range stacks {
			s += n.d.Limit()
		}
		return s
	}
	rig.power = tier.Coordinator().TotalPower
	rig.checks = func(res *passResult) {
		for i, n := range stacks {
			if err := n.ledgerCheck(); err != nil {
				res.breakCheck("node %d: %v", i, err)
			}
		}
	}
	rig.outcomes = func(res *passResult) {
		var uj uint64
		for _, n := range stacks {
			uj += n.led.Summarize().TotalUJ
		}
		res.outcome["node_energy_j"] = float64(uj) / 1e6
		res.outcome["caps_w"] = float64(rig.caps())
	}
	return rig, nil
}

// treeScenario is tree_1024: a building over 32 rows over 1024
// in-process leaves, every tier configured as cmd/powercoord ships it,
// with row→building uplinks over loopback HTTP and delta-encoded status.
func treeScenario(rows, leavesPerRow, measured int) coordScenario {
	return coordScenario{
		warmup:   3,
		measured: measured,
		build: func(seed int64, wrap func(http.Handler) http.Handler) (*coordRig, error) {
			return buildTree(seed, rows, leavesPerRow, wrap)
		},
	}
}

// treeLeafWatts is the building budget per leaf; a leaf can absorb
// twice its share and its demand walks within [0.2, 1.9] shares.
const treeLeafWatts = 100

func buildTree(seed int64, nRows, perRow int, wrap func(http.Handler) http.Handler) (rig *coordRig, err error) {
	nLeaves := nRows * perRow
	rig = &coordRig{budget: units.Watts(treeLeafWatts * nLeaves)}
	var leaves []*hierarchy.Leaf
	var rows []*hierarchy.Tier
	var root *hierarchy.Tier
	rig.close = func() {
		for _, s := range rig.servers {
			s.close()
		}
		if root != nil {
			root.Close()
		}
		for _, r := range rows {
			r.Close()
		}
		for _, l := range leaves {
			l.Close()
		}
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	rng := newRand(seed)
	share := units.Watts(treeLeafWatts)
	demand := make([]float64, nLeaves)
	// The fallback chain closes the partition math as in
	// hierarchy.SimTree: a row's fallback is the floor the building
	// promises it, a leaf's the floor its row promises.
	rowFallback := rig.budget * coordFloorFrac / units.Watts(nRows)
	leafFallback := rowFallback * coordFloorFrac / units.Watts(perRow)
	nodeID := int16(0)
	uplinks := make([]cluster.Transport, nRows)
	var tracers []*tracing.Tracer
	for r := 0; r < nRows; r++ {
		rowName := fmt.Sprintf("row%02d", r)
		ts := make([]cluster.Transport, perRow)
		for j := 0; j < perRow; j++ {
			li := len(leaves)
			demand[li] = 0.5 + 0.8*rng.Float64()
			nodeID++
			leaf, err := hierarchy.NewLeaf(hierarchy.LeafConfig{
				Name: fmt.Sprintf("n%04d", li), NodeID: nodeID,
				Max: 2 * share, Fallback: leafFallback, Demand: share * units.Watts(demand[li]),
			})
			if err != nil {
				return nil, err
			}
			leaves = append(leaves, leaf)
			ts[j] = leaf.Transport(rowName)
		}
		nodeID++
		reg := metrics.NewRegistry()
		metrics.RegisterBuildInfo(reg, "powercoord")
		tracer := tracing.New(rowName, 0)
		row, err := hierarchy.NewTier(hierarchy.TierConfig{
			Name: rowName, Level: "row", NodeID: nodeID, StartAtFallback: true, Fallback: rowFallback,
			FloorFraction: coordFloorFrac, Interval: coordInterval, NodeTimeout: coordTimeout,
			Retries: coordRetries, QuarantineAfter: coordQuarantine,
			Metrics: reg, Tracer: tracer, Fleet: cluster.NewFleet(2*rowFallback, reg),
		}, ts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		tracers = append(tracers, tracer)
		s, addr, err := serve(wrap(row.Agent().Handler()))
		if err != nil {
			return nil, err
		}
		rig.servers = append(rig.servers, s)
		uplinks[r] = cluster.NewHTTPNode(rowName, addr, "building").CollectMetrics().DeltaStatus()
	}
	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg, "powercoord")
	tracer := tracing.New("building", 0)
	root, err = hierarchy.NewTier(hierarchy.TierConfig{
		Name: "building", Level: "building", NodeID: nodeID + 1, Budget: rig.budget, Fallback: rig.budget,
		FloorFraction: coordFloorFrac, Interval: coordInterval, NodeTimeout: coordTimeout,
		Retries: coordRetries, QuarantineAfter: coordQuarantine,
		Metrics: reg, Tracer: tracer, Fleet: cluster.NewFleet(rig.budget, reg),
	}, uplinks)
	if err != nil {
		return nil, err
	}
	rig.tracers = append([]*tracing.Tracer{tracer}, tracers...)
	rig.between = func(*passResult) {
		for i, l := range leaves {
			d := demand[i] * (1 + 0.2*(rng.Float64()-0.5))
			if d < 0.2 {
				d = 0.2
			} else if d > 1.9 {
				d = 1.9
			}
			demand[i] = d
			l.SetDemand(share * units.Watts(d))
		}
	}
	// A tree round is the rows' rounds, concurrently (each row is its own
	// powercoord process), then the building's round over their uplinks.
	rig.round = func(ctx context.Context) error {
		t := time.Now()
		errs := make([]error, len(rows))
		var wg sync.WaitGroup
		for i, row := range rows {
			wg.Add(1)
			go func(i int, row *hierarchy.Tier) {
				defer wg.Done()
				errs[i] = row.Step(ctx)
			}(i, row)
		}
		wg.Wait()
		rig.rowsDur = time.Since(t)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("%s: %w", rows[i].Name(), err)
			}
		}
		t = time.Now()
		err := root.Step(ctx)
		rig.rootDur = time.Since(t)
		return err
	}
	rig.setBudget = root.SetBudget
	rig.committed = func() units.Watts { return root.Coordinator().Budget() }
	rig.caps = func() units.Watts {
		var s units.Watts
		for _, l := range leaves {
			s += l.Limit()
		}
		return s
	}
	rig.power = func() units.Watts {
		var s units.Watts
		for _, l := range leaves {
			s += l.Power()
		}
		return s
	}
	rig.outcomes = func(res *passResult) {
		res.outcome["caps_w"] = float64(rig.caps())
		res.outcome["leaf_power_w"] = float64(rig.power())
	}
	// Tier conservation below the root: each row's leaves fit the
	// budget that row has committed.
	rig.tierCheck = func() error {
		for i, row := range rows {
			var s units.Watts
			for _, l := range leaves[i*perRow : (i+1)*perRow] {
				s += l.Limit()
			}
			if b := row.Coordinator().Budget(); s > b+budgetSlack {
				return fmt.Errorf("%s: Σ leaf caps %.3f W exceed its committed budget %.3f W", row.Name(), float64(s), float64(b))
			}
		}
		return nil
	}
	return rig, nil
}
