// Package sim provides the deterministic cycle-accurate simulation kernel
// underneath the on-chip network model.
//
// The kernel is intentionally simple: a simulation is a fixed, ordered list
// of named phases. Each global cycle runs every phase once, in registration
// order; within a phase, components are visited in registration order. All
// randomness is drawn from a single seeded source, so a simulation with the
// same configuration and seed is bit-for-bit repeatable. That determinism is
// what makes the property tests and paper-reproduction benchmarks in this
// repository meaningful.
package sim

import (
	"fmt"
	"math/rand"
)

// Cycle is a point in simulated time, measured in router clock cycles.
type Cycle = int64

// PhaseFunc is the body of one simulation phase. It receives the current
// cycle number.
type PhaseFunc func(now Cycle)

type phase struct {
	name string
	fn   PhaseFunc
}

// Kernel drives a phased, cycle-accurate simulation.
type Kernel struct {
	now    Cycle
	phases []phase
	rng    *rand.Rand
	src    *Source
	seed   int64

	// crashHook, when set, observes a panic unwinding Run/RunUntil before
	// it propagates (SetCrashHook).
	crashHook func(now Cycle, recovered any)

	// phaseMark is the schedule length recorded by MarkPhases: the
	// network's own phases. Reset truncates anything appended after it
	// (checkpointers, collectors, injectors) so a pooled kernel starts its
	// next run with exactly the built schedule.
	phaseMark int
}

// NewKernel returns a kernel whose random source is seeded with seed.
// The source's position is its 16-byte state (Source), so a checkpoint
// saves and restores it exactly.
func NewKernel(seed int64) *Kernel {
	src := NewSource(seed)
	return &Kernel{rng: rand.New(src), src: src, seed: seed}
}

// Seed reports the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// RNG returns the kernel's deterministic random source. All stochastic
// decisions in a simulation must draw from this source.
func (k *Kernel) RNG() *rand.Rand { return k.rng }

// Now reports the current cycle. During a phase it is the cycle being
// executed; between Step calls it is the number of completed cycles.
func (k *Kernel) Now() Cycle { return k.now }

// Source exposes the stream behind RNG, whose SaveState/RestoreState
// checkpoint its position.
func (k *Kernel) Source() *Source { return k.src }

// RestoreClock repositions the kernel at cycle now, the restore
// counterpart of Now. It must only be called between cycles.
func (k *Kernel) RestoreClock(now Cycle) { k.now = now }

// AddPhase appends a named phase to the per-cycle schedule. Phases run in
// the order they were added. Adding a phase after the simulation has started
// is allowed and takes effect on the next cycle.
func (k *Kernel) AddPhase(name string, fn PhaseFunc) {
	if fn == nil {
		panic(fmt.Sprintf("sim: nil phase %q", name))
	}
	k.phases = append(k.phases, phase{name: name, fn: fn})
}

// MarkPhases records the current schedule as the kernel's baseline: a
// later Reset truncates every phase added after this call. The network
// calls it once, after registering its own phases, so per-run extras
// (checkpoint writers, serve collectors, fault injectors) appended later
// do not survive into a pooled re-initialization.
func (k *Kernel) MarkPhases() { k.phaseMark = len(k.phases) }

// Reset rewinds the kernel for a fresh run on the same schedule: the
// clock returns to cycle 0, the random source is reseeded, phases
// appended after MarkPhases are dropped, and any crash hook is detached.
// Must be called between cycles.
func (k *Kernel) Reset(seed int64) {
	if k.phaseMark > 0 && len(k.phases) > k.phaseMark {
		for i := k.phaseMark; i < len(k.phases); i++ {
			k.phases[i] = phase{}
		}
		k.phases = k.phases[:k.phaseMark]
	}
	k.now = 0
	k.seed = seed
	k.src.Seed(seed)
	k.crashHook = nil
}

// Step executes one full cycle: every phase once, in order.
func (k *Kernel) Step() {
	for i := range k.phases {
		k.phases[i].fn(k.now)
	}
	k.now++
}

// SetCrashHook installs fn to observe a panic unwinding Run or RunUntil
// before it propagates: the flight recorder uses it to freeze its window
// on the way down. The hook runs on the panicking goroutine with the
// simulation mid-cycle — it must treat the state as read-only wreckage.
// The original panic is always re-raised, and a panic inside the hook
// itself is swallowed so it cannot mask the cause.
func (k *Kernel) SetCrashHook(fn func(now Cycle, recovered any)) { k.crashHook = fn }

// crashGuard is the deferred recover behind Run/RunUntil when a crash
// hook is installed.
func (k *Kernel) crashGuard() {
	if r := recover(); r != nil {
		if h := k.crashHook; h != nil {
			func() {
				defer func() { recover() }()
				h(k.now, r)
			}()
		}
		panic(r)
	}
}

// Run executes n cycles.
func (k *Kernel) Run(n int64) {
	if k.crashHook != nil {
		defer k.crashGuard()
	}
	for i := int64(0); i < n; i++ {
		k.Step()
	}
}

// RunUntil steps the simulation until cond returns true or the cycle budget
// is exhausted. It reports whether cond became true. cond runs between
// cycles.
func (k *Kernel) RunUntil(cond func() bool, budget int64) bool {
	if k.crashHook != nil {
		defer k.crashGuard()
	}
	for i := int64(0); i < budget; i++ {
		if cond() {
			return true
		}
		k.Step()
	}
	return cond()
}

// PhaseNames reports the registered phase names in execution order,
// primarily for tests that pin the kernel's schedule.
func (k *Kernel) PhaseNames() []string {
	names := make([]string, len(k.phases))
	for i, p := range k.phases {
		names[i] = p.name
	}
	return names
}
