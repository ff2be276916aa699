package index

import (
	"math"

	"tlevelindex/internal/geom"
	"tlevelindex/internal/pool"
)

// queryScratch is the per-query working memory of the traversals in
// queries.go: visited/option bitsets, the ORU heap backing array, a region
// scratch for the visits that reach an LP, and the probe-point buffers of UTK. One scratch
// serves one query at a time; the pool hands each concurrent query its own,
// so steady-state queries allocate nothing (or O(result) for the answer
// itself).
type queryScratch struct {
	visited bitset // cell ids
	optSeen bitset // option ids
	heap    []oruEntry
	opts    []int32
	cells   []int32 // UTK's partition cells
	rset    []int32 // result-set buffer threaded through regionIntoBuf
	reg     *geom.Region

	// UTK probe machinery: sample points and box halfspaces, both backed by
	// reused flat buffers.
	samples   [][]float64
	sampleBuf []float64
	kron      []float64
	boxHS     []geom.Halfspace
	boxBuf    []float64
}

var queryScratchPool = pool.NewScratch(func() *queryScratch { return &queryScratch{} })

func getScratch(dim int) *queryScratch {
	qs := queryScratchPool.Get()
	if qs.reg == nil {
		qs.reg = geom.NewRegion(dim)
	}
	return qs
}

func putScratch(qs *queryScratch) { queryScratchPool.Put(qs) }

// bitset is a fixed-size bit vector over small int32 ids.
type bitset []uint64

// reset sizes the bitset for n ids and clears it, reusing the backing array.
func (b *bitset) reset(n int) {
	words := (n + 63) >> 6
	s := *b
	if cap(s) < words {
		s = make([]uint64, words)
	} else {
		s = s[:words]
		for i := range s {
			s[i] = 0
		}
	}
	*b = s
}

func (b bitset) get(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)      { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

// boxSamples fills the scratch with interior probe points of the box: its
// center plus a deterministic low-discrepancy (Kronecker) scatter —
// identical points to the historical allocating sampler.
func (qs *queryScratch) boxSamples(box geom.Box) [][]float64 {
	dim := len(box.Lo)
	const n = 24
	need := (n + 1) * dim
	if cap(qs.sampleBuf) < need {
		qs.sampleBuf = make([]float64, need)
	}
	buf := qs.sampleBuf[:need]
	if cap(qs.samples) < n+1 {
		qs.samples = make([][]float64, 0, n+1)
	}
	out := qs.samples[:0]
	c := buf[:dim:dim]
	for k := 0; k < dim; k++ {
		c[k] = (box.Lo[k] + box.Hi[k]) / 2
	}
	out = append(out, c)
	if cap(qs.kron) < dim {
		qs.kron = make([]float64, dim)
	}
	x := qs.kron[:dim]
	for j := range x {
		x[j] = 0
	}
	for i := 0; i < n; i++ {
		p := buf[(i+1)*dim : (i+2)*dim : (i+2)*dim]
		for j := 0; j < dim; j++ {
			alpha := math.Mod(0.7548776662466927*float64(j+1), 1)
			x[j] = math.Mod(x[j]+alpha, 1)
			p[j] = box.Lo[j] + (box.Hi[j]-box.Lo[j])*x[j]
		}
		out = append(out, p)
	}
	qs.samples = out
	return out
}

// boxHalfspaces expresses the box as 2·dim halfspaces backed by the scratch
// buffers — the coefficient values match geom.Box.Halfspaces exactly.
func (qs *queryScratch) boxHalfspaces(box geom.Box) []geom.Halfspace {
	dim := len(box.Lo)
	need := 2 * dim * dim
	if cap(qs.boxBuf) < need {
		qs.boxBuf = make([]float64, need)
	}
	buf := qs.boxBuf[:need]
	for i := range buf {
		buf[i] = 0
	}
	if cap(qs.boxHS) < 2*dim {
		qs.boxHS = make([]geom.Halfspace, 0, 2*dim)
	}
	hs := qs.boxHS[:0]
	for k := 0; k < dim; k++ {
		lo := buf[2*k*dim : (2*k+1)*dim : (2*k+1)*dim]
		lo[k] = -1
		hs = append(hs, geom.Halfspace{A: lo, B: -box.Lo[k]})
		hi := buf[(2*k+1)*dim : (2*k+2)*dim : (2*k+2)*dim]
		hi[k] = 1
		hs = append(hs, geom.Halfspace{A: hi, B: box.Hi[k]})
	}
	qs.boxHS = hs
	return hs
}
