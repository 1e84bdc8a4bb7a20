package main

// prng is splitmix64: small, seedable, and the same on every host, so a
// seed fixes a workload's whole input sequence.
type prng struct{ s uint64 }

func newPRNG(seed, stream uint64) *prng {
	return &prng{s: mix64(seed ^ mix64(stream+0x9e3779b97f4a7c15))}
}

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *prng) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.next()
		for k := 0; k < 8 && i+k < len(b); k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
}

// repSeed derives the seed of rep n of a run, so every rep of a run has
// inputs of its own and a run's seed still fixes all of them.
func repSeed(seed uint64, n int) uint64 { return mix64(seed ^ mix64(uint64(n)+1)) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
