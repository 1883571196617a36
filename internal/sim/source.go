package sim

import (
	"encoding/binary"
	"math/rand"
	randv2 "math/rand/v2"

	"repro/internal/checkpoint"
)

// Source is the simulator's random stream: a rand.Source64 over the
// standard library's 128-bit PCG (math/rand/v2). Its whole position is
// the generator's 16-byte state, so a checkpoint saves and restores that
// state directly: restoring costs the same at cycle 10⁹ as at cycle 0,
// and nothing is replayed. Wrap it with rand.New to get the v1
// *rand.Rand the traffic patterns draw from.
type Source struct {
	pcg randv2.PCG
}

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source. The two PCG state words are derived from
// seed by SplitMix64, so nearby seeds (a run seed xor a tile index) start
// at unrelated points of the stream.
func (s *Source) Seed(seed int64) {
	x := uint64(seed)
	hi := splitMix64(&x)
	s.pcg.Seed(hi, splitMix64(&x))
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 { return s.pcg.Uint64() }

// State reports the PCG's two state words: the whole stream position.
func (s *Source) State() (hi, lo uint64) {
	b, _ := s.pcg.MarshalBinary() // "pcg:" + hi + lo, big-endian
	return binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:])
}

// SaveState writes the stream position: 16 bytes, whatever the position.
func (s *Source) SaveState(e *checkpoint.Encoder) {
	hi, lo := s.State()
	e.U64(hi)
	e.U64(lo)
}

// RestoreState repositions the stream at a position saved with
// SaveState, whatever the source was seeded with.
func (s *Source) RestoreState(d *checkpoint.Decoder) {
	var b [20]byte
	copy(b[:], "pcg:")
	binary.BigEndian.PutUint64(b[4:], d.U64())
	binary.BigEndian.PutUint64(b[12:], d.U64())
	if err := s.pcg.UnmarshalBinary(b[:]); err != nil {
		d.Fail("rng state: %v", err)
	}
}

// splitMix64 advances *x and returns the next SplitMix64 output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

var _ rand.Source64 = (*Source)(nil)
