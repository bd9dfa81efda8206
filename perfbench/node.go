package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/opconfig"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/units"
	"repro/internal/workload"
)

// nodeConfig is one powerd node's configuration: what cmd/powerd's flags
// or -config file would select.
type nodeConfig struct {
	chip       platform.Chip
	specs      []core.AppSpec
	policy     string // opconfig.PolicyFor name
	limit      units.Watts
	interval   time.Duration
	flightCap  int // 0 = the recorder's default, as powerd ships
	services   []svc.Config
	sloTargets []core.SLOTarget
}

// nodeStack is one powerd node wired the way cmd/powerd wires it:
// metrics registry, decision journal, flight recorder on both machine
// and daemon, energy ledger, and the latency-service model when
// services are configured. The benchmark drives the simulator itself
// instead of AttachVirtual, so the daemon's interval is timed apart
// from the machine's ticks.
type nodeStack struct {
	cfg     nodeConfig
	reg     *metrics.Registry
	journal *decisions.Journal
	rec     *flight.Recorder
	m       *sim.Machine
	model   *svc.Model
	led     *ledger.Ledger
	d       *daemon.Daemon
	ticks   int // machine steps per control interval
}

// svcTimer times the service model's tick from outside: one OnTick hook
// registered before svc.Model.Attach and one after it bracket the
// model's own hook.
type svcTimer struct {
	t0    time.Time
	total time.Duration
	ticks int
}

func newNodeStack(cfg nodeConfig, st *svcTimer) (*nodeStack, error) {
	n := &nodeStack{cfg: cfg, reg: metrics.NewRegistry(), journal: decisions.NewJournal(0), rec: flight.New(cfg.flightCap)}
	metrics.RegisterBuildInfo(n.reg, "powerd")
	m, err := sim.New(cfg.chip, sim.WithMetrics(n.reg), sim.WithFlightRecorder(n.rec))
	if err != nil {
		return nil, err
	}
	n.m = m
	n.ticks = int(cfg.interval / m.Tick())
	svcCores := make(map[int]bool)
	for _, sc := range cfg.services {
		for _, c := range sc.Cores {
			svcCores[c] = true
		}
	}
	for _, s := range cfg.specs {
		if svcCores[s.Core] {
			continue
		}
		if err := m.Pin(workload.NewInstance(workload.MustByName(s.Name)), s.Core); err != nil {
			return nil, err
		}
	}
	if len(cfg.services) > 0 {
		if n.model, err = svc.NewModel(cfg.services...); err != nil {
			return nil, err
		}
		if st != nil {
			m.OnTick(func(time.Duration) { st.t0 = time.Now() })
		}
		if err := n.model.Attach(m); err != nil {
			return nil, err
		}
		if st != nil {
			m.OnTick(func(time.Duration) { st.total += time.Since(st.t0); st.ticks++ })
		}
	}
	n.led, err = ledger.New(ledger.Config{Chip: cfg.chip, Apps: cfg.specs, Rates: ledger.DefaultRates, Metrics: n.reg, Flight: n.rec})
	if err != nil {
		return nil, err
	}
	pol, err := opconfig.PolicyFor(cfg.policy, cfg.chip, cfg.specs, cfg.limit, cfg.sloTargets...)
	if err != nil {
		return nil, err
	}
	dcfg := daemon.Config{
		Chip: cfg.chip, Policy: pol, Apps: cfg.specs, Limit: cfg.limit, Interval: cfg.interval,
		Metrics: n.reg, Journal: n.journal, Flight: n.rec, Ledger: n.led,
	}
	if n.model != nil {
		dcfg.SLO = n.model
		dcfg.SLOTargets = cfg.sloTargets
	}
	dev := m.Device()
	if n.d, err = daemon.New(dcfg, dev, daemon.MachineActuator{M: m, Dev: dev}); err != nil {
		return nil, err
	}
	return n, n.d.Start()
}

// advance steps the machine to the next interval boundary — the ticks
// AttachVirtual would let pass before firing the daemon.
func (n *nodeStack) advance() {
	for i := 0; i < n.ticks; i++ {
		n.m.Step()
	}
}

// iterate runs one shipped control interval.
func (n *nodeStack) iterate() error {
	_, err := n.d.RunIteration(n.cfg.interval)
	return err
}

// instructions sums the instructions retired on the given cores.
func (n *nodeStack) instructions(cores []int) float64 {
	var s float64
	for _, c := range cores {
		s += n.m.Counters(c).Instr
	}
	return s
}

// ledgerCheck verifies the node's energy accounts close exactly:
// Σ app + unattributed + excluded == total, in integer µJ.
func (n *nodeStack) ledgerCheck() error {
	sum := n.led.Summarize()
	acc := sum.UnattributedUJ + sum.ExcludedUJ
	for _, a := range sum.Apps {
		acc += a.TotalUJ
	}
	if acc != sum.TotalUJ {
		return fmt.Errorf("ledger: apps+unattributed+excluded = %d µJ, total = %d µJ", acc, sum.TotalUJ)
	}
	return nil
}

// specMix is a fleet node's application set: ten SPEC CPU2017 profiles,
// HD/AVX and LD alike, one per core of the 10-core Skylake 4114. The
// seed deals the share levels 10, 20, … 100 out to the apps, so every
// seed runs the same share spread on a different assignment.
func specMix(rng *rand.Rand) []core.AppSpec {
	profiles := workload.SPEC2017()[:10]
	specs := make([]core.AppSpec, len(profiles))
	for i, k := range rng.Perm(len(profiles)) {
		p := profiles[i]
		specs[i] = core.AppSpec{Name: p.Name, Core: i, AVX: p.AVX, Shares: units.Shares(10 * (k + 1))}
	}
	return specs
}

// nodeScenario is one single-node workload.
type nodeScenario struct {
	warmup, measured int // control intervals
	build            func(seed int64) (nodeConfig, error)
	batchCores       []int
}

// The SLO scenario is cmd/experiments' -figure slo (six websearch cores
// under open-loop diurnal Poisson arrivals, two cpuburn cores, equal
// shares) run by the shipped daemon stack under slo-feedback.
var (
	sloServiceCores = []int{0, 1, 2, 3, 4, 5}
	sloBatchCores   = []int{6, 7}
)

func sloScenario(measuredPeriods int) nodeScenario {
	period := int(experiments.SLOStudyPeriod / time.Second)
	warmup := period
	measured := measuredPeriods * period
	return nodeScenario{
		warmup:     warmup,
		measured:   measured,
		batchCores: sloBatchCores,
		build: func(seed int64) (nodeConfig, error) {
			chip := platform.Ryzen()
			span := time.Duration(warmup+measured+1) * time.Second
			arrivals, err := svc.PoissonTrace(svc.Diurnal(experiments.SLOStudyBaseRate, experiments.SLOStudyPeriod), span, seed)
			if err != nil {
				return nodeConfig{}, err
			}
			setpoint := time.Duration(float64(experiments.SLOStudyTarget) * experiments.SLOSetpointMargin)
			var specs []core.AppSpec
			for _, c := range sloServiceCores {
				specs = append(specs, core.AppSpec{
					Name: "websearch", Core: c, Shares: 50, HighPriority: true,
					BaselineIPS: svc.InteractiveProfile.IPS(chip.Freq.Ceiling(1, false)),
				})
			}
			for _, c := range sloBatchCores {
				specs = append(specs, core.AppSpec{
					Name: "cpuburn", Core: c, Shares: 50, AVX: true,
					BaselineIPS: workload.CPUBurn.IPS(chip.Freq.Ceiling(1, true)),
				})
			}
			return nodeConfig{
				chip:     chip,
				specs:    specs,
				policy:   "slo-feedback",
				limit:    experiments.SLOStudyLimit,
				interval: time.Second,
				services: []svc.Config{{
					Name: "websearch", Cores: sloServiceCores, Seed: seed,
					Arrivals: svc.OpenTrace, Trace: arrivals,
					SLO: experiments.SLOStudyTarget, RecordAll: true,
				}},
				sloTargets: []core.SLOTarget{{Service: "websearch", P99: setpoint}},
			}, nil
		},
	}
}

// runNodePass sets up one node, warms it up, and runs the measured
// intervals: the machine advances to each interval boundary untimed,
// then one RunIteration is timed.
func runNodePass(sc nodeScenario, seed int64, traced bool, spans *spanLog) (passResult, error) {
	res := passResult{outcome: map[string]float64{}, layers: map[string]float64{}}
	began := time.Now()
	cfg, err := sc.build(seed)
	if err != nil {
		return res, err
	}
	var st *svcTimer
	if traced {
		st = &svcTimer{}
	}
	n, err := newNodeStack(cfg, st)
	if err != nil {
		return res, err
	}
	for i := 0; i < sc.warmup; i++ {
		n.advance()
		res.attempted++
		if err := n.iterate(); err != nil {
			res.failOp("warm-up interval %d: %v", i+1, err)
		}
	}
	var s *svc.Service
	var done0, arrived0, dropped0, timedOut0 uint64
	if n.model != nil {
		s = n.model.Services()[0]
		s.ResetStats()
		done0, arrived0, dropped0, timedOut0 = s.Completed(), s.Arrived(), s.Dropped(), s.TimedOut()
	}
	instr0 := n.instructions(sc.batchCores)
	sim0 := n.m.Now()
	res.setup = time.Since(began)
	if st != nil {
		st.total, st.ticks = 0, 0
	}

	var (
		pm                              phaseMeter
		stepTime                        time.Duration
		steps                           int
		sample, decide, actuate, record []float64
		fill, events, windowRPS         []float64
		svcBuf                          []core.ServiceSLO
	)
	pm.begin(traced)
	for i := 0; i < sc.measured; i++ {
		iter := uint64(n.d.Iterations() + 1)
		simStart := time.Now()
		if traced {
			for k := 0; k < n.ticks; k++ {
				t := time.Now()
				n.m.Step()
				stepTime += time.Since(t)
			}
			steps += n.ticks
		} else {
			n.advance()
		}
		simDur := time.Since(simStart)
		ev0 := n.rec.Total()
		pm.enter()
		t := time.Now()
		err := n.iterate()
		el := time.Since(t)
		cpu := pm.leave()
		res.attempted++
		if err != nil {
			res.failOp("interval %d: %v", iter, err)
			continue
		}
		res.steps = append(res.steps, micros(el))
		res.stepCPU = append(res.stepCPU, micros(cpu))
		if !traced {
			continue
		}
		ph := n.d.LastPhases()
		rest := el - ph.Total()
		sample = append(sample, micros(ph.Sample))
		decide = append(decide, micros(ph.Decide))
		actuate = append(actuate, micros(ph.Actuate))
		record = append(record, micros(rest))
		events = append(events, float64(n.rec.Total()-ev0))
		iv := spans.add(0, "interval", iter, simStart, time.Since(simStart))
		spans.add(iv, "sim.advance", iter, simStart, simDur)
		ri := spans.add(iv, "daemon.run_iteration", iter, t, el)
		at := t
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"daemon.sample", ph.Sample}, {"daemon.decide", ph.Decide}, {"daemon.actuate", ph.Actuate}, {"daemon.record", rest}} {
			spans.add(ri, p.name, iter, at, p.d)
			at = at.Add(p.d)
		}
		if n.model != nil {
			ft := time.Now()
			svcBuf = n.model.FillServiceSLO(svcBuf[:0])
			fd := time.Since(ft)
			fill = append(fill, micros(fd))
			spans.add(iv, "svc.fill", iter, ft, fd)
			windowRPS = append(windowRPS, s.WindowRate())
		}
	}
	pm.end()
	res.absorb(&pm)

	simSec := (n.m.Now() - sim0).Seconds()
	res.simSeconds = simSec
	res.outcome["batch_gips"] = (n.instructions(sc.batchCores) - instr0) / simSec / 1e9
	if err := n.ledgerCheck(); err != nil {
		res.breakCheck("%v", err)
	}
	if s != nil {
		inFlight := uint64(s.InFlight())
		if s.Arrived() != s.Completed()+s.Dropped()+s.TimedOut()+inFlight {
			res.breakCheck("svc accounting: arrived %d != completed %d + dropped %d + timed out %d + in flight %d",
				s.Arrived(), s.Completed(), s.Dropped(), s.TimedOut(), inFlight)
		}
		completed := s.Completed() - done0
		arrived := s.Arrived() - arrived0
		lost := (s.Dropped() - dropped0) + (s.TimedOut() - timedOut0)
		over := overTarget(s, int(completed), experiments.SLOStudyTarget.Seconds())
		res.outcome["slo_p99_ms"] = s.LatencyPercentile(99) * 1e3
		res.outcome["slo_miss_frac"] = (float64(over) + float64(lost)) / float64(arrived)
		res.outcome["svc_completed"] = float64(completed)
		if traced {
			res.layers["svc.completed"] = float64(completed)
			res.layers["svc.dropped"] = float64(s.Dropped() - dropped0)
			res.layers["svc.timed_out"] = float64(s.TimedOut() - timedOut0)
			res.layers["svc.window_rps"] = mean(windowRPS)
		}
	}
	if traced {
		res.layers["sim.steps"] = float64(n.ticks)
		svcTime := time.Duration(0)
		if st != nil {
			svcTime = st.total
			if st.ticks > 0 {
				res.layers["svc.tick_us"] = micros(st.total) / float64(st.ticks)
			}
		}
		if steps > 0 {
			res.layers["sim.step_us"] = micros(stepTime-svcTime) / float64(steps)
		}
		res.layers["daemon.sample_us"] = median(sample)
		res.layers["daemon.decide_us"] = median(decide)
		res.layers["daemon.actuate_us"] = median(actuate)
		res.layers["daemon.record_us"] = median(record)
		res.layers["flight.events_per_interval"] = mean(events)
		if len(fill) > 0 {
			res.layers["svc.fill_us"] = median(fill)
		}
	}
	return res, nil
}

// overTarget counts the completed requests in the service's RecordAll
// log whose latency exceeds target seconds. The log is read only
// through LatencyPercentile, so the count bisects on the rank whose
// interpolated percentile lands exactly on a sample.
func overTarget(s *svc.Service, n int, target float64) int {
	if n == 0 {
		return 0
	}
	if n == 1 {
		if s.LatencyPercentile(50) > target {
			return 1
		}
		return 0
	}
	at := func(k int) float64 { return s.LatencyPercentile(100 * float64(k) / float64(n-1)) }
	lo, hi := 0, n // first rank whose sample exceeds target
	for lo < hi {
		mid := (lo + hi) / 2
		if at(mid) > target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return n - lo
}
