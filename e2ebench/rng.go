package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// rng is a splitmix64 stream: tiny, deterministic, and independent of
// math/rand's global state, so a request sequence depends on its seed
// alone.
type rng struct{ s uint64 }

func newRNG(seed []byte) rng { return rng{s: binary.LittleEndian.Uint64(seed[:8])} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn draws uniformly from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float draws uniformly from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle permutes n elements uniformly (Fisher–Yates) through swap.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	x := r.float()
	k := sort.SearchFloat64s(z.cdf, x)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// deck deals 0..n-1 in seeded shuffled rounds: every value appears once
// per round, so any prefix of the draws holds each value within one of
// its share and the mix cannot drift between seeds.
type deck struct {
	order []int
	pos   int
}

// left is how many values the current round has still to deal.
func (d *deck) left() int { return len(d.order) - d.pos }

func (d *deck) deal(r *rng, n int) int {
	if d.pos >= len(d.order) || len(d.order) != n {
		d.order = d.order[:0]
		for i := 0; i < n; i++ {
			d.order = append(d.order, i)
		}
		r.shuffle(n, func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	v := d.order[d.pos]
	d.pos++
	return v
}

// share is one kind's weight in a mix.
type share struct {
	k kind
	n int
}

// mix deals kinds in fixed proportions: each round of Σn draws holds
// exactly n of every kind, in a seeded order, so the share of each kind
// in a run does not vary with the seed.
type mix struct {
	slots []kind
	d     deck
}

func newMix(shares ...share) *mix {
	m := &mix{}
	for _, sh := range shares {
		for i := 0; i < sh.n; i++ {
			m.slots = append(m.slots, sh.k)
		}
	}
	return m
}

func (m *mix) draw(r *rng) kind { return m.slots[m.d.deal(r, len(m.slots))] }
