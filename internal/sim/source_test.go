package sim

import (
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
)

// drawMix draws n values from rng across the kinds of draw the simulator
// makes, so stream positions are reached the way a real run reaches them.
func drawMix(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			rng.Float64()
		case 1:
			rng.Intn(97)
		case 2:
			rng.ExpFloat64()
		case 3:
			rng.Uint64()
		}
	}
}

// saveSource encodes a source's state.
func saveSource(s *Source) []byte {
	b := checkpoint.NewBuilder(0, 0)
	e := b.Section("rng")
	s.SaveState(e)
	f, err := checkpoint.Parse(b.Bytes())
	if err != nil {
		panic(err)
	}
	d, err := f.Section("rng")
	if err != nil {
		panic(err)
	}
	out := make([]byte, d.Remaining())
	for i := range out {
		out[i] = d.U8()
	}
	return out
}

// TestSourceRestoreContinuesStream saves a source after 10⁶ draws,
// restores the state into a source seeded differently, and requires the
// next 1000 values of both to be equal.
func TestSourceRestoreContinuesStream(t *testing.T) {
	src := NewSource(7)
	rng := rand.New(src)
	drawMix(rng, 1_000_000)
	state := saveSource(src)

	other := NewSource(12345)
	drawMix(rand.New(other), 17)
	other.RestoreState(checkpoint.NewDecoder(state))
	rng2 := rand.New(other)
	for i := 0; i < 1000; i++ {
		if a, b := rng.Int63(), rng2.Int63(); a != b {
			t.Fatalf("value %d after restore: %d, want %d", i, b, a)
		}
	}
}

// TestSourceStateFixedSize pins the encoded state at 16 bytes at every
// position: a checkpoint's RNG cost does not grow with the cycles run.
func TestSourceStateFixedSize(t *testing.T) {
	src := NewSource(3)
	rng := rand.New(src)
	for _, n := range []int{0, 1, 1000, 100_000} {
		drawMix(rng, n)
		if got := len(saveSource(src)); got != 16 {
			t.Fatalf("after %d more draws the state encodes to %d bytes, want 16", n, got)
		}
	}
}

// TestSourceSeedDeterministic checks that a seed fixes the stream, that
// Seed rewinds it, and that nearby seeds give different streams.
func TestSourceSeedDeterministic(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	first := a.Uint64()
	if b.Uint64() != first {
		t.Fatal("equal seeds gave different streams")
	}
	a.Seed(42)
	if a.Uint64() != first {
		t.Fatal("Seed did not rewind the stream")
	}
	if NewSource(43).Uint64() == first {
		t.Fatal("seeds 42 and 43 start with the same value")
	}
	if v := NewSource(5).Int63(); v < 0 {
		t.Fatalf("Int63 returned a negative value %d", v)
	}
}

// TestSourceRestoreRejectsShortState requires a truncated state to fail
// the decoder rather than leave the stream half-set silently.
func TestSourceRestoreRejectsShortState(t *testing.T) {
	d := checkpoint.NewDecoder(make([]byte, 8))
	NewSource(1).RestoreState(d)
	if d.Err() == nil {
		t.Fatal("an 8-byte state restored without error")
	}
}

// TestKernelRestoreClock checks the kernel-level pair: the clock and the
// stream state restored into a kernel built with another seed continue
// exactly where the original left off.
func TestKernelRestoreClock(t *testing.T) {
	k := NewKernel(3)
	for i := 0; i < 10; i++ {
		k.RNG().Intn(100)
	}
	k.AddPhase("noop", func(Cycle) {})
	k.Run(25)
	state, now := saveSource(k.Source()), k.Now()
	want := k.RNG().Int63()

	k2 := NewKernel(99)
	k2.Source().RestoreState(checkpoint.NewDecoder(state))
	k2.RestoreClock(now)
	if k2.Now() != now {
		t.Fatalf("restored clock = %d, want %d", k2.Now(), now)
	}
	if got := k2.RNG().Int63(); got != want {
		t.Fatalf("restored RNG drew %d, want %d", got, want)
	}
}
