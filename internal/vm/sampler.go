package vm

// DefaultSamplePeriod is the sampling period (in executed instructions) used
// when a Sampler is installed with Period <= 0. Instruction-count epochs
// rather than wall-clock timers keep sampling deterministic: the same module
// on the same input yields the same sample set on every run, which is what
// makes the profiler's attribution rate a testable quantity.
const DefaultSamplePeriod = 16384

// Sampler implements cheap epoch-based PC sampling of the dispatch loop.
// The machine checks the sampler only at branch checkpoints (every taken or
// fall-through branch, call, and return, on the fused and the unfused view
// alike), so the cost is amortized over basic blocks rather than paid per
// instruction:
//
//   - sampling off (no sampler installed): one predictable nil test per
//     branch — within measurement noise;
//   - sampling on: the nil test plus a two-load compare per branch, and the
//     out-of-line take path only once per Period executed instructions.
//
// A Sampler belongs to one Machine; install it with Machine.SetSampler.
type Sampler struct {
	// Period is the sampling epoch in executed instructions.
	Period int64
	// Hit is invoked for every sample with the module being executed and
	// the byte offset of the instruction pending at the checkpoint. It runs
	// synchronously on the execution goroutine and must be cheap; nil
	// discards samples (only the Samples counter advances).
	Hit func(mod *Module, off int32)
	// Samples counts taken samples.
	Samples int64

	// next is the absolute Machine.Executed threshold of the next sample.
	next int64
}

// SetSampler installs (or with nil removes) the PC sampler. Installing
// re-arms the epoch relative to the machine's current instruction count.
// Not safe to call while the machine is executing.
func (m *Machine) SetSampler(s *Sampler) {
	if s != nil {
		if s.Period <= 0 {
			s.Period = DefaultSamplePeriod
		}
		s.next = m.Executed + s.Period
	}
	m.sampler = s
}

// Sampler returns the installed sampler (nil when sampling is off).
func (m *Machine) Sampler() *Sampler { return m.sampler }

// take records one sample at byte offset off of mod. total is the observed
// executed-instruction count at the checkpoint; the next epoch is re-armed
// relative to it so a long basic block cannot queue up a burst of samples.
func (s *Sampler) take(mod *Module, off int32, total int64) {
	s.Samples++
	s.next = total + s.Period
	if s.Hit != nil {
		s.Hit(mod, off)
	}
}
