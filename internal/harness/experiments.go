package harness

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	prometheus "repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	Size workload.SizeClass
	Reps int // timing repetitions, best-of
	Apps []string
	// StealThreshold overrides the victim backlog at which the stealing
	// ablations engage (0 = the runtime's adaptive default). Plumbed from
	// ssbench's -steal-threshold flag so the A5/A6 tables can sweep it.
	StealThreshold int
}

// stealOpts returns the stealing option set the ablations run under.
func (o Options) stealOpts() []prometheus.Option {
	opts := []prometheus.Option{prometheus.WithPolicy(prometheus.LeastLoaded), prometheus.WithStealing()}
	if o.StealThreshold > 0 {
		opts = append(opts, prometheus.WithStealThreshold(o.StealThreshold))
	}
	return opts
}

// Table2 prints the benchmark inventory (paper Table 2), instantiating each
// input so the printed parameters are the real generated ones.
func Table2(w io.Writer, opts Options) error {
	apps, err := FilterApps(opts.Apps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2: benchmarks (size class %s)\n", opts.Size)
	fmt.Fprintf(w, "%-14s %-13s %-20s %s\n", "Program", "Source", "Description", "Input")
	for _, app := range apps {
		inst := app.Load(opts.Size)
		fmt.Fprintf(w, "%-14s %-13s %-20s %s\n", app.Name, app.Source, app.Desc, inst.Desc)
	}
	return nil
}

// Table3 prints the emulated machine configurations.
func Table3(w io.Writer) {
	fmt.Fprintf(w, "Table 3: machine configurations (emulated as context counts on this host, GOMAXPROCS=%d)\n",
		runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-14s %-9s %s\n", "Config", "Contexts", "Paper hardware")
	for _, m := range Machines {
		fmt.Fprintf(w, "%-14s %-9d %s\n", m.Name, m.Contexts, m.Paper)
	}
}

// Fig4 reproduces Figure 4: speedup of the conventional-parallel (CP) and
// serialization-sets (SS) implementations over the sequential program, for
// every benchmark on every machine configuration, with harmonic means.
func Fig4(w io.Writer, opts Options) error {
	apps, err := FilterApps(opts.Apps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4: speedup over sequential (size %s, best of %d)\n", opts.Size, opts.Reps)
	Table3(w)
	fmt.Fprintf(w, "\n%-18s", "config")
	for _, app := range apps {
		fmt.Fprintf(w, "%14s", app.Name)
	}
	fmt.Fprintf(w, "%10s\n", "H_MEAN")

	type row struct {
		label    string
		speedups []float64
	}
	var rows []row
	for _, m := range Machines {
		rows = append(rows,
			row{label: m.Name + " CP"},
			row{label: m.Name + " SS"},
		)
	}
	for _, app := range apps {
		inst := app.Load(opts.Size)
		seq := TimeBest(opts.Reps, inst.Seq)
		for mi, m := range Machines {
			workers, delegates := m.Contexts, m.Contexts-1
			cp := TimeBest(opts.Reps, func() { inst.CP(workers) })
			ss := TimeBest(opts.Reps, func() { inst.SS(delegates) })
			rows[2*mi].speedups = append(rows[2*mi].speedups, Speedup(seq, cp))
			rows[2*mi+1].speedups = append(rows[2*mi+1].speedups, Speedup(seq, ss))
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s", r.label)
		for _, s := range r.speedups {
			fmt.Fprintf(w, "%14.1f", s)
		}
		fmt.Fprintf(w, "%10.1f\n", HarmonicMean(r.speedups))
	}
	return nil
}

// Fig5a reproduces Figure 5a: the fraction of execution time each SS
// benchmark spends in aggregation, isolation, and reduction epochs, on the
// 16-context configuration.
func Fig5a(w io.Writer, opts Options) error {
	apps, err := FilterApps(opts.Apps)
	if err != nil {
		return err
	}
	const contexts = 16
	fmt.Fprintf(w, "Figure 5a: execution time breakdown (size %s, %d contexts)\n", opts.Size, contexts)
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "program", "aggregation", "isolation", "reduction")
	for _, app := range apps {
		inst := app.Load(opts.Size)
		st := inst.SS(contexts - 1)
		total := st.Total()
		if total <= 0 {
			total = 1
		}
		pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
		fmt.Fprintf(w, "%-14s %11.1f%% %11.1f%% %11.1f%%\n",
			app.Name, pct(st.Aggregation), pct(st.Isolation), pct(st.Reduction))
	}
	return nil
}

// Fig5b reproduces Figure 5b: SS speedup across input size classes on the
// 16-context configuration.
func Fig5b(w io.Writer, opts Options) error {
	apps, err := FilterApps(opts.Apps)
	if err != nil {
		return err
	}
	const contexts = 16
	fmt.Fprintf(w, "Figure 5b: input scaling, SS speedup (%d contexts, best of %d)\n", contexts, opts.Reps)
	fmt.Fprintf(w, "%-14s %8s %8s %8s\n", "program", "small", "medium", "large")
	means := map[workload.SizeClass][]float64{}
	for _, app := range apps {
		fmt.Fprintf(w, "%-14s", app.Name)
		for _, size := range workload.SizeClasses {
			inst := app.Load(size)
			seq := TimeBest(opts.Reps, inst.Seq)
			ss := TimeBest(opts.Reps, func() { inst.SS(contexts - 1) })
			s := Speedup(seq, ss)
			means[size] = append(means[size], s)
			fmt.Fprintf(w, "%8.1f", s)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "H_MEAN")
	for _, size := range workload.SizeClasses {
		fmt.Fprintf(w, "%8.1f", HarmonicMean(means[size]))
	}
	fmt.Fprintln(w)
	return nil
}

// Fig6 reproduces Figure 6: SS speedup as the number of delegate threads
// grows from 1 to maxDelegates.
func Fig6(w io.Writer, opts Options, maxDelegates int) error {
	apps, err := FilterApps(opts.Apps)
	if err != nil {
		return err
	}
	if maxDelegates < 1 {
		maxDelegates = 15
	}
	fmt.Fprintf(w, "Figure 6: SS scaling with delegate threads (size %s, best of %d)\n", opts.Size, opts.Reps)
	fmt.Fprintf(w, "%-14s", "program")
	for d := 1; d <= maxDelegates; d++ {
		fmt.Fprintf(w, "%7d", d)
	}
	fmt.Fprintln(w)
	for _, app := range apps {
		inst := app.Load(opts.Size)
		seq := TimeBest(opts.Reps, inst.Seq)
		fmt.Fprintf(w, "%-14s", app.Name)
		for d := 1; d <= maxDelegates; d++ {
			ss := TimeBest(opts.Reps, func() { inst.SS(d) })
			fmt.Fprintf(w, "%7.1f", Speedup(seq, ss))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Ablation runs the design-choice studies DESIGN.md calls out:
//
//   - scheduling policy: static modulus (paper) vs least-loaded (the
//     paper's dynamic-scheduling future work) on a skew-prone benchmark;
//   - assignment ratio: program share 0 vs 1 vs 2;
//   - queue capacity: tiny vs default vs large communication queues;
//   - kmeans formulation: reduction (proposed fix) vs naive (measured in
//     the paper);
//   - occupancy-aware stealing: least-loaded with and without whole-set
//     work stealing, with the runtime's stealing and drain counters
//     surfaced (Steals, ThresholdAdjusts, HotSetsPlaced, DrainedOps).
func Ablation(w io.Writer, opts Options) error {
	apps, err := FilterApps(opts.Apps)
	if err != nil {
		return err
	}
	const delegates = 15
	fmt.Fprintf(w, "Ablations (size %s, %d delegates, best of %d)\n\n", opts.Size, delegates, opts.Reps)

	fmt.Fprintf(w, "A1. delegate assignment policy (speedup over sequential)\n")
	fmt.Fprintf(w, "%-14s %12s %12s\n", "program", "static-mod", "least-loaded")
	for _, app := range apps {
		inst := app.Load(opts.Size)
		if inst.SSOpt == nil {
			continue
		}
		seq := TimeBest(opts.Reps, inst.Seq)
		st := TimeBest(opts.Reps, func() { inst.SSOpt(delegates, prometheus.WithPolicy(prometheus.StaticMod)) })
		ll := TimeBest(opts.Reps, func() { inst.SSOpt(delegates, prometheus.WithPolicy(prometheus.LeastLoaded)) })
		fmt.Fprintf(w, "%-14s %12.1f %12.1f\n", app.Name, Speedup(seq, st), Speedup(seq, ll))
	}

	fmt.Fprintf(w, "\nA2. assignment ratio: virtual delegates on the program context\n")
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "program", "share=0", "share=1", "share=2")
	for _, app := range apps {
		inst := app.Load(opts.Size)
		if inst.SSOpt == nil {
			continue
		}
		seq := TimeBest(opts.Reps, inst.Seq)
		fmt.Fprintf(w, "%-14s", app.Name)
		for _, share := range []int{0, 1, 2} {
			share := share
			d := TimeBest(opts.Reps, func() { inst.SSOpt(delegates, prometheus.WithProgramShare(share)) })
			fmt.Fprintf(w, "%10.1f", Speedup(seq, d))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nA3. communication queue capacity\n")
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "program", "cap=8", "cap=1024", "cap=16384")
	for _, app := range apps {
		inst := app.Load(opts.Size)
		if inst.SSOpt == nil {
			continue
		}
		seq := TimeBest(opts.Reps, inst.Seq)
		fmt.Fprintf(w, "%-14s", app.Name)
		for _, cap := range []int{8, 1024, 16384} {
			cap := cap
			d := TimeBest(opts.Reps, func() { inst.SSOpt(delegates, prometheus.WithQueueCapacity(cap)) })
			fmt.Fprintf(w, "%10.1f", Speedup(seq, d))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nA4. kmeans formulation (paper §5.1): reduction fix vs naive two-pass\n")
	if app, ok := AppByName("kmeans"); ok {
		inst := app.Load(opts.Size)
		seq := TimeBest(opts.Reps, inst.Seq)
		red := TimeBest(opts.Reps, func() { inst.SS(delegates) })
		naive := TimeBest(opts.Reps, func() { inst.Variants["naive"](delegates) })
		fmt.Fprintf(w, "%-14s %12s %12s\n", "", "reduction", "naive")
		fmt.Fprintf(w, "%-14s %12.1f %12.1f\n", "kmeans", Speedup(seq, red), Speedup(seq, naive))
	}

	fmt.Fprintf(w, "\nA5. occupancy-aware work stealing (least-loaded, whole-set handoff)\n")
	fmt.Fprintf(w, "%-14s %9s %9s %8s %8s %10s %10s %10s\n",
		"program", "ll", "ll+steal", "steals", "thradj", "hotplaced", "drains", "drained")
	for _, app := range apps {
		inst := app.Load(opts.Size)
		if inst.SSOpt == nil {
			continue
		}
		seq := TimeBest(opts.Reps, inst.Seq)
		ll := TimeBest(opts.Reps, func() { inst.SSOpt(delegates, prometheus.WithPolicy(prometheus.LeastLoaded)) })
		var st prometheus.Stats
		steal := TimeBest(opts.Reps, func() {
			st = inst.SSOpt(delegates, opts.stealOpts()...)
		})
		fmt.Fprintf(w, "%-14s %9.1f %9.1f %8d %8d %10d %10d %10d\n",
			app.Name, Speedup(seq, ll), Speedup(seq, steal),
			st.Steals, st.ThresholdAdjusts, st.HotSetsPlaced, st.DrainBatches, st.DrainedOps)
	}

	fmt.Fprintf(w, "\nA6. recursive whole-set stealing (quiescent multi-producer handoff)\n")
	// handoffs splits into occupancy-driven steals (handoffs - forcedevac)
	// and forced evacuations off a set's own producer's delegate; outveto
	// counts migration attempts blocked by the per-set outbound ledger and
	// outstamp its write volume — together they attribute the skewed win
	// between the two migration kinds and price the ledger.
	fmt.Fprintf(w, "%-14s %10s %10s %9s %9s %9s %8s %9s %8s %10s %8s\n",
		"workload", "static ms", "steal ms", "delta", "handoffs", "forcedev", "outveto", "outstamp", "thradj", "hotplaced", "spills")
	{
		static := TimeBest(opts.Reps, func() { recursiveSkewed() })
		var st prometheus.Stats
		steal := TimeBest(opts.Reps, func() {
			st = recursiveSkewed(opts.stealOpts()...)
		})
		delta := 100 * (steal.Seconds() - static.Seconds()) / static.Seconds()
		fmt.Fprintf(w, "%-14s %10.2f %10.2f %8.1f%% %9d %9d %8d %9d %8d %10d %8d\n",
			"rec-skewed", 1e3*static.Seconds(), 1e3*steal.Seconds(), delta,
			st.Handoffs, st.ForcedEvacs, st.OutboundVetoes, st.OutboundTracked,
			st.ThresholdAdjusts, st.HotSetsPlaced, st.Spills)
	}

	fmt.Fprintf(w, "\nA7. fault containment under chaos injection (internal/chaos, seeded)\n")
	// Each row runs the chaosSkewed workload with a seeded probabilistic
	// injector panicking in a fraction p of operations. The runtime must
	// survive every row (a wedged barrier would hang the table); the fault
	// counters price what containment did: panics contained, sets poisoned,
	// and delegations dropped on poisoned sets. p=0 is the control — it
	// runs with the injection seam armed but never firing, so its time vs
	// the other rows is the price of the faults, not of the seam.
	//
	// A6's recursiveSkewed is deliberately NOT reused here: its wave
	// throttle spin-waits inside the root operation for marker operations
	// delegated to the hot sets, and a marker dropped on a poisoned set
	// would spin that wait forever. That is the documented containment
	// hazard for user-level waits (doc.go "Fault containment") — chaos
	// workloads must throttle through engine barriers, which containment
	// guarantees still close.
	fmt.Fprintf(w, "%-14s %10s %8s %9s %9s %9s\n",
		"workload", "ms", "panics", "poisoned", "dropped", "survived")
	for _, p := range []float64{0, 0.005, 0.05} {
		p := p
		var st prometheus.Stats
		elapsed := TimeBest(opts.Reps, func() {
			st = chaosSkewed(chaosOpt(p))
		})
		fmt.Fprintf(w, "%-14s %10.2f %8d %9d %9d %9v\n",
			fmt.Sprintf("rec-skew p=%g", p), 1e3*elapsed.Seconds(),
			st.Panics, st.PoisonedSets, st.DroppedOps, true)
	}

	fmt.Fprintf(w, "\nA8. serving tier (session-affinity router, skewed keys)\n")
	// Concurrent clients drive the internal/serve router with a 90/10
	// hot/cold key distribution — the adversarial shape for the stealing
	// machinery, since the hot keys' sets all hash wherever they hash.
	// The chaos row poisons one hot key mid-run: its requests must fail
	// fast (500s with the fault attached) while every other key keeps
	// serving, and the epoch rotation must heal it. A wedged drain would
	// hang the table, so completing at all is part of the assertion.
	fmt.Fprintf(w, "%-14s %10s %8s %8s %8s %8s %8s\n",
		"workload", "ms", "served", "faulted", "rejects", "steals", "panics")
	for _, chaosKeys := range []bool{false, true} {
		name := "serve-skewed"
		if chaosKeys {
			name = "serve-chaos"
		}
		var res servingResult
		elapsed := TimeBest(opts.Reps, func() { res = servingSkewed(chaosKeys) })
		fmt.Fprintf(w, "%-14s %10.2f %8d %8d %8d %8d %8d\n",
			name, 1e3*elapsed.Seconds(), res.served, res.faulted, res.rejects,
			res.stats.Steals, res.stats.Panics)
	}

	fmt.Fprintf(w, "\nA9. elastic serving (phase-shifted load: quiet -> burst -> quiet)\n")
	// The elasticity ablation: the same phase-shifted workload against a
	// fixed pool provisioned for the burst versus an autoscaled pool that
	// must discover it. del-sec integrates active delegates over the run
	// (the capacity bill); p99 is the client-side latency tail. The claim
	// under test is that the autoscaled row pays materially fewer
	// delegate-seconds for a comparable p99, and resizes > 0 proves the
	// pool actually moved (up for the burst, back down for the cooldown)
	// with zero failed or reordered requests — orderOK folds the per-key
	// sequence check over every phase.
	fmt.Fprintf(w, "%-14s %10s %8s %8s %8s %9s %9s %8s\n",
		"workload", "ms", "served", "resizes", "maxdel", "del-sec", "p99 ms", "orderOK")
	for _, auto := range []bool{false, true} {
		name := "serve-fixed"
		if auto {
			name = "serve-elastic"
		}
		res := servingPhased(auto)
		fmt.Fprintf(w, "%-14s %10.2f %8d %8d %8d %9.3f %9.2f %8v\n",
			name, 1e3*res.elapsed.Seconds(), res.served, res.stats.Resizes,
			res.maxActive, res.delegateSec, 1e3*res.p99.Seconds(), res.orderOK)
	}
	return nil
}

type servingResult struct {
	served, faulted, rejects uint64
	stats                    prometheus.Stats
}

// servingSkewed drives the serving tier end to end: 8 concurrent clients,
// 200 requests each, 90% on 4 hot session keys and 10% spread across 32
// cold ones. With chaos on, one request poisons a hot key partway in.
func servingSkewed(chaosKeys bool) servingResult {
	srv, err := serve.New(serve.Config{
		Delegates:     4,
		EpochInterval: 5 * time.Millisecond,
		Handler: func(s *serve.Session, r *http.Request) (int, string) {
			if r.Header.Get("X-Chaos-Panic") == "1" {
				panic("chaos: injected serving fault")
			}
			return http.StatusOK, fmt.Sprintf("%d", s.Seq)
		},
	})
	if err != nil {
		panic(err)
	}
	h := srv.Handler()
	var res servingResult
	var served, faulted, rejects atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("hot-%d", i%4)
				if i%10 == 9 {
					key = fmt.Sprintf("cold-%d-%d", c, i%32)
				}
				r := httptest.NewRequest("GET", "/bump", nil)
				r.Header.Set("X-Session-Key", key)
				if chaosKeys && c == 0 && i == 50 {
					r.Header.Set("X-Chaos-Panic", "1")
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				switch rec.Code {
				case http.StatusOK:
					served.Add(1)
				case http.StatusInternalServerError:
					faulted.Add(1)
				default:
					rejects.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Drain(); err != nil {
		panic(err)
	}
	res.served, res.faulted, res.rejects = served.Load(), faulted.Load(), rejects.Load()
	res.stats = srv.Stats()
	return res
}

type phasedResult struct {
	served      uint64
	maxActive   int
	delegateSec float64
	p99         time.Duration
	orderOK     bool
	elapsed     time.Duration
	stats       prometheus.Stats
}

// servingPhased is the A9 workload: phase-shifted load (quiet -> burst ->
// quiet -> idle cooldown) against either a fixed pool provisioned for the
// burst (4 delegates the whole run) or an autoscaled pool (1..4) that
// must discover the burst and give the capacity back. A sampler
// integrates the active-delegate count over the run into delegate-seconds
// — the capacity bill the elastic pool is supposed to shrink — while
// every client checks its keys' sequences stay exactly 1..n across all
// phases, so a resize that failed or reordered even one request flips
// orderOK.
func servingPhased(autoscale bool) phasedResult {
	cfg := serve.Config{
		Delegates:     4,
		EpochInterval: 5 * time.Millisecond,
		Handler: func(s *serve.Session, r *http.Request) (int, string) {
			time.Sleep(500 * time.Microsecond)
			return http.StatusOK, fmt.Sprintf("%d", s.Seq)
		},
	}
	if autoscale {
		cfg.Delegates = 1
		cfg.MinDelegates = 1
		cfg.MaxDelegates = 4
		cfg.Autoscale = true
		cfg.AutoscaleCooldown = 1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		panic(err)
	}
	h := srv.Handler()

	var res phasedResult
	var served, orderBad atomic.Uint64
	var mu sync.Mutex
	var lats []time.Duration
	lastSeq := make([]int, 8)

	// One worker slot = one session key, persistent across phases, so the
	// order check spans every resize the run performs.
	client := func(c, n int, gap time.Duration) {
		key := fmt.Sprintf("phased-%d", c)
		for i := 0; i < n; i++ {
			r := httptest.NewRequest("GET", "/bump", nil)
			r.Header.Set("X-Session-Key", key)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, r)
			lat := time.Since(t0)
			seq := 0
			fmt.Sscanf(rec.Body.String(), "%d", &seq)
			if rec.Code != http.StatusOK || seq != lastSeq[c]+1 {
				orderBad.Add(1)
				return
			}
			lastSeq[c] = seq
			served.Add(1)
			mu.Lock()
			lats = append(lats, lat)
			mu.Unlock()
			if gap > 0 {
				time.Sleep(gap)
			}
		}
	}
	runPhase := func(workers, n int, gap time.Duration) {
		var wg sync.WaitGroup
		for c := 0; c < workers; c++ {
			wg.Add(1)
			go func(c int) { defer wg.Done(); client(c, n, gap) }(c)
		}
		wg.Wait()
	}

	stop := make(chan struct{})
	var sampWG sync.WaitGroup
	sampWG.Add(1)
	go func() {
		defer sampWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		prev := time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				a := srv.ActiveDelegates()
				res.delegateSec += float64(a) * now.Sub(prev).Seconds()
				if a > res.maxActive {
					res.maxActive = a
				}
				prev = now
			}
		}
	}()

	start := time.Now()
	runPhase(2, 40, time.Millisecond)  // quiet: trickle, well under one delegate
	runPhase(8, 150, 0)                // burst: backlog the autoscaler must see
	runPhase(2, 40, time.Millisecond)  // quiet again: the EWMA decays
	time.Sleep(100 * time.Millisecond) // idle cooldown: the pool walks to the floor
	res.elapsed = time.Since(start)
	close(stop)
	sampWG.Wait()
	if err := srv.Drain(); err != nil {
		panic(err)
	}
	res.served = served.Load()
	res.orderOK = orderBad.Load() == 0
	res.stats = srv.Stats()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.p99 = lats[len(lats)*99/100]
	}
	return res
}

// chaosOpt arms the runtime's fault-injection seam with a fresh seeded
// injector panicking in a fraction p of delegated operations.
func chaosOpt(p float64) prometheus.Option {
	hook := chaos.Seeded(11, p).Hook()
	return func(c *core.Config) { c.FaultInjector = hook }
}

// chaosSkewed is the A7 workload: the same 90/10 hot/cold recursive shape
// as A6 but fault-tolerant by construction — the program context streams
// the hot runs (bounded by lane backpressure), each hot operation issues
// one fire-and-forget nested delegation to a cold set, and the only waits
// are the epoch barriers, which fault containment guarantees close no
// matter which operations were dropped. Two epochs, so poisoning-clears-
// at-epoch-boundary is on the measured path too.
func chaosSkewed(extra ...prometheus.Option) prometheus.Stats {
	all := append([]prometheus.Option{prometheus.WithDelegates(4), prometheus.Recursive()}, extra...)
	rt := prometheus.Init(all...)
	defer rt.Terminate()
	hot := []uint64{0, 4, 8, 12} // delegate 1 under StaticMod's vmap
	cold := []uint64{2, 6, 3, 7} // spread; produced only by the hot ops' delegate
	w := prometheus.NewWritable(rt, 0)
	for epoch := 0; epoch < 2; epoch++ {
		rt.BeginIsolation()
		for i := 0; i < 400; i++ {
			h := hot[i%len(hot)]
			c := cold[i%len(cold)]
			w.DelegateTo(h, func(cx *prometheus.Ctx, _ *int) {
				time.Sleep(5 * time.Microsecond)
				cx.Delegate(c, func(*prometheus.Ctx) {})
			})
		}
		rt.EndIsolation()
	}
	return rt.Stats()
}

// recursiveSkewed is the A6 workload: the shared 90/10 skewed recursive
// shape (workload.SkewedRecursive — the BenchmarkRecursiveSkewed driver,
// sized for the ablation table) with briefly blocking operations. Fixed
// at 4 delegates: the hot/cold set ids are chosen against StaticMod's map
// (under LeastLoaded the shape co-homes the hot sets itself). Two isolation
// epochs, so hot-set seeded placement is on the measured path.
func recursiveSkewed(extra ...prometheus.Option) prometheus.Stats {
	all := append([]prometheus.Option{prometheus.WithDelegates(4), prometheus.Recursive()}, extra...)
	rt := prometheus.Init(all...)
	defer rt.Terminate()
	shape := workload.SkewedRecursive{
		Hot:    []uint64{0, 4, 8, 12}, // delegate 1 under StaticMod's vmap
		Cold:   []uint64{2, 6, 3, 7},
		Waves:  6,
		RunLen: 8,
	}
	blocking := func(*prometheus.Ctx) { time.Sleep(20 * time.Microsecond) }
	sharedOp := func(uint64, int32) func(*prometheus.Ctx) { return blocking }
	w := prometheus.NewWritable(rt, 0)
	for epoch := 0; epoch < 2; epoch++ {
		rt.BeginIsolation()
		w.DelegateTo(1, func(c *prometheus.Ctx, _ *int) { shape.Run(c, sharedOp) })
		rt.EndIsolation()
	}
	return rt.Stats()
}
