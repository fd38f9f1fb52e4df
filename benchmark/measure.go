package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// runConfig is one invocation's input.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Quick shrinks every workload to a smoke test (smallest data, one
	// set-up) so `go test` can run all four in seconds.
	Quick  bool
	OutDir string
}

// setups returns how many times a run sets up at least: setup_s reports what
// is typical of several, so that one slow page-fault storm does not decide
// it.
func (c runConfig) setups() int {
	if c.Quick {
		return 1
	}
	return 3
}

// timeSetup times one set-up. It first hands every page the process no
// longer uses back to the operating system, so that each set-up of a run
// starts, like the first, with nothing to recycle.
func timeSetup(build func() error) (float64, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	err := build()
	return time.Since(t0).Seconds(), err
}

// typicalSetup tops times up to n set-ups and returns what is typical of
// them, by the rule for timed passes. The extra
// set-ups run after the measurement, on worlds nothing else uses: run before
// it, the GiBs of vm images they leave behind were released in the
// background during the timed passes, and one sql_adhoc run in three
// measured half the throughput of the others.
func typicalSetup(n int, times []float64, build func() error) (float64, error) {
	for len(times) < n {
		s, err := timeSetup(build)
		if err != nil {
			return 0, err
		}
		times = append(times, s)
	}
	return typical(times), nil
}

// result is one run's output: the end-to-end metrics of an untraced run or
// the per-layer metrics of a traced one, plus what the envelope records.
type result struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]any     `json:"info"`
	// FirstFailure describes the first failed operation, for the log.
	FirstFailure string `json:"first_failure,omitempty"`
}

// newResult sums the operations of every tally of a run, warm-up included:
// each was checked, so each counts as attempted.
func newResult(info map[string]any, tallies ...*tally) *result {
	res := &result{Info: info}
	for _, t := range tallies {
		res.Attempted += len(t.latency)
		res.Failed += t.failed
		res.FirstFailure = firstOf(res.FirstFailure, t.first)
	}
	return res
}

// tally collects the timed operations of a run. A pass is one sweep over
// every engine and query (for sql_adhoc: one block of statements); an
// operation's compile time is everything from plan or text to executable
// code, its exec time the call that runs it.
type tally struct {
	engines  int
	compile  [][]float64 // [pass][engine] summed ms
	exec     [][]float64
	latency  []float64 // per operation, ms
	passAt   []int     // per pass, index of its first operation in latency
	passWall []float64 // per pass, summed latency in ms
	failed   int
	first    string
}

func newTally(engines int) *tally { return &tally{engines: engines} }

func (t *tally) beginPass() {
	t.compile = append(t.compile, make([]float64, t.engines))
	t.exec = append(t.exec, make([]float64, t.engines))
	t.passAt = append(t.passAt, len(t.latency))
	t.passWall = append(t.passWall, 0)
}

func (t *tally) add(engine int, compile, exec time.Duration, err error) {
	p := len(t.compile) - 1
	c, e := float64(compile)/1e6, float64(exec)/1e6
	t.compile[p][engine] += c
	t.exec[p][engine] += e
	t.passWall[p] += c + e
	t.latency = append(t.latency, c+e)
	if err != nil {
		t.failed++
		if t.first == "" {
			t.first = err.Error()
		}
	}
}

// passMedians returns each pass's median operation latency.
func (t *tally) passMedians() []float64 {
	meds := make([]float64, len(t.passAt))
	for p, from := range t.passAt {
		to := len(t.latency)
		if p+1 < len(t.passAt) {
			to = t.passAt[p+1]
		}
		meds[p] = median(t.latency[from:to])
	}
	return meds
}

// typical is what a run reports for a quantity it measured several times:
// the lower quartile. The repetitions do the same work, and the host's other
// tenants can only add to their time, in bursts that last seconds to
// minutes; the lower quartile holds still until three repetitions in four
// were hit, where the median gives way at two.
func typical(xs []float64) float64 { return percentile(xs, 25) }

// perEngineTypical is the geometric mean over engines of each engine's
// typical pass.
func perEngineTypical(passes [][]float64, engines int) float64 {
	typ := make([]float64, engines)
	col := make([]float64, len(passes))
	for e := 0; e < engines; e++ {
		for p := range passes {
			col[p] = passes[p][e]
		}
		typ[e] = typical(col)
	}
	return geomean(typ)
}

// endToEndMetrics derives every end-to-end metric from the timed passes.
// Each pass did the same work, so each metric is what is typical of the
// passes: of an engine's share of a pass for the three sums, of the pass's
// median operation for query_p50_ms.
func (t *tally) endToEndMetrics(setupS float64) map[string]float64 {
	opsPerPass := float64(len(t.latency)) / float64(len(t.passWall))
	var wallMs float64 // a typical pass, engine by engine
	share := make([]float64, len(t.passWall))
	for e := 0; e < t.engines; e++ {
		for p := range share {
			share[p] = t.compile[p][e] + t.exec[p][e]
		}
		wallMs += typical(share)
	}
	return map[string]float64{
		"compile_ms":    perEngineTypical(t.compile, t.engines),
		"exec_ms":       perEngineTypical(t.exec, t.engines),
		"query_p50_ms":  typical(t.passMedians()),
		"queries_per_s": opsPerPass / (wallMs / 1e3),
		"setup_s":       setupS,
	}
}

// layers accumulates per-layer observations of the traced passes.
type layers struct {
	sum  map[string]float64
	n    map[string]int
	peak map[string]float64
}

func newLayers() *layers {
	return &layers{sum: map[string]float64{}, n: map[string]int{}, peak: map[string]float64{}}
}

func (l *layers) add(name string, v float64) {
	l.sum[name] += v
	l.n[name]++
	l.peak[name] = max(l.peak[name], v)
}

func (l *layers) max(name string) float64 { return l.peak[name] }

func (l *layers) addDur(name string, d time.Duration, unit time.Duration) {
	l.add(name, float64(d)/float64(unit))
}

func (l *layers) mean(name string) float64 {
	if l.n[name] == 0 {
		return 0
	}
	return l.sum[name] / float64(l.n[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerMetrics fills every per-layer metric: the mean of what was
// observed under that name, the ratios derived from the sums, and whatever
// the caller computed itself in extra.
func (l *layers) perLayerMetrics(extra map[string]float64) map[string]float64 {
	derived := map[string]float64{
		"sa.elim_share":   ratio(l.sum["sa.checks_eliminated"], l.sum["sa.mem_ops"]),
		"vm.fuse_rate":    ratio(l.sum["fuse.micro_ops"], l.sum["fuse.instrs"]),
		"vm.minstr_per_s": ratio(l.sum["vm.instrs"], l.sum["vm.exec_us"]), // instrs per µs = millions per s
		"pcc.hit_share":   ratio(l.sum["pcc.hits"], l.sum["pcc.hits"]+l.sum["pcc.misses"]),
	}
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		switch {
		case has(extra, d.Name):
			out[d.Name] = extra[d.Name]
		case has(derived, d.Name):
			out[d.Name] = derived[d.Name]
		default:
			out[d.Name] = l.mean(d.Name)
		}
	}
	return out
}

func has(m map[string]float64, k string) bool {
	_, ok := m[k]
	return ok
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// guard runs f and turns a panic into an error: a vm out-of-memory panic or
// a back-end bug is a failed operation, not the end of the run.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// firstOf returns the first non-empty string.
func firstOf(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
