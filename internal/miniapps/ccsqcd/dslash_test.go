package ccsqcd

import (
	"math"
	"testing"

	"fibersim/internal/miniapps/common"
)

// The dense reference operator: plain 4x4 loops over the generic spin
// matrices, skipping zero entries. The sparse operator must reproduce
// it bit for bit, because the solver's residual check and every
// modeled result downstream of it are pinned to this floating-point
// order.

// denseHop is the reference for hop: coeff * P ⊗ M * src(site).
func denseHop(out []complex128, p *spinMat, m *SU3, src []complex128, dagger bool, kappa float64) {
	var chi [4][3]complex128
	for s := 0; s < 4; s++ {
		v := [3]complex128{src[s*3], src[s*3+1], src[s*3+2]}
		if dagger {
			chi[s] = m.DagMulVec(&v)
		} else {
			chi[s] = m.MulVec(&v)
		}
	}
	k := complex(kappa, 0)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			c := p[a][b]
			if c == 0 {
				continue
			}
			kc := k * c
			out[a*3+0] -= kc * chi[b][0]
			out[a*3+1] -= kc * chi[b][1]
			out[a*3+2] -= kc * chi[b][2]
		}
	}
}

// denseClover is the reference for applyClover.
func denseClover(d *Dirac, sigma *[6]spinMat, out, in []complex128, site int) {
	coef := complex(d.Csw*d.Kappa/2, 0)
	for p := range cloverPairs {
		f := &d.clover.F[p][site]
		sg := &sigma[p]
		var chi [4][3]complex128
		for b := 0; b < 4; b++ {
			v := [3]complex128{in[b*3], in[b*3+1], in[b*3+2]}
			chi[b] = f.MulVec(&v)
		}
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				s := sg[a][b]
				if s == 0 {
					continue
				}
				cs := coef * s
				out[a*3+0] -= cs * chi[b][0]
				out[a*3+1] -= cs * chi[b][1]
				out[a*3+2] -= cs * chi[b][2]
			}
		}
	}
}

// denseApplySite is the reference for ApplySite.
func denseApplySite(d *Dirac, dst, src Field, x, y, z, t int) {
	g := d.G
	pm, pp := projectors()
	sigma := sigmaMunu()
	site := g.Index(x, y, z, t)
	out := dst.At(site)
	in := src.At(site)
	copy(out, in)
	xp, xm := (x+1)%g.LX, (x-1+g.LX)%g.LX
	yp, ym := (y+1)%g.LY, (y-1+g.LY)%g.LY
	zp, zm := (z+1)%g.LZ, (z-1+g.LZ)%g.LZ
	nbs := [4][2]int{
		{g.Index(xp, y, z, t), g.Index(xm, y, z, t)},
		{g.Index(x, yp, z, t), g.Index(x, ym, z, t)},
		{g.Index(x, y, zp, t), g.Index(x, y, zm, t)},
		{g.Index(x, y, z, t+1), g.Index(x, y, z, t-1)},
	}
	for mu, n := range nbs {
		denseHop(out, &pm[mu], &d.U.U[mu][site], src.At(n[0]), false, d.Kappa)
		denseHop(out, &pp[mu], &d.U.U[mu][n[1]], src.At(n[1]), true, d.Kappa)
	}
	if d.clover != nil {
		denseClover(d, &sigma, out, in, site)
	}
}

// randomField fills the whole stored volume, halos included, so every
// neighbour read sees a distinct value.
func randomField(g *Geometry, seed int64) Field {
	f := g.NewField()
	rng := common.NewRNG(seed)
	for i := range f {
		f[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return f
}

func TestApplySiteMatchesDenseReferenceBitwise(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, clover := range []bool{false, true} {
			for rank := 0; rank < procs; rank++ {
				g, err := NewGeometry(4, 4, 4, 8, procs, rank)
				if err != nil {
					t.Fatal(err)
				}
				u := NewGauge(g, 31)
				d := NewDirac(g, u, Kappa)
				if clover {
					d = NewDiracClover(g, u, Kappa, Csw)
				}
				src := randomField(g, int64(37+rank))
				got, want := g.NewField(), g.NewField()
				for i := 0; i < g.LocalVol(); i++ {
					x, y, z, tt := g.SiteOfLinear(i)
					d.ApplySite(got, src, x, y, z, tt)
					denseApplySite(d, want, src, x, y, z, tt)
					off := g.Index(x, y, z, tt) * spinorLen
					for k := off; k < off+spinorLen; k++ {
						gr, gi := math.Float64bits(real(got[k])), math.Float64bits(imag(got[k]))
						wr, wi := math.Float64bits(real(want[k])), math.Float64bits(imag(want[k]))
						if gr != wr || gi != wi {
							t.Fatalf("procs=%d rank=%d clover=%t site %d component %d: %v, dense reference %v",
								procs, rank, clover, i, k-off, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

func TestApplySiteAllocatesNothing(t *testing.T) {
	g, err := NewGeometry(4, 4, 4, 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDiracClover(g, NewGauge(g, 3), Kappa, Csw)
	src, dst := randomField(g, 5), g.NewField()
	if n := testing.AllocsPerRun(20, func() { d.ApplySite(dst, src, 1, 2, 3, 4) }); n != 0 {
		t.Errorf("ApplySite allocates %v times per call, want 0", n)
	}
}

// BenchmarkApplySite sweeps one rank's whole slab of the small
// lattice (8x8x8x48) with the Wilson-Clover operator and reports the
// host cost per site update.
func BenchmarkApplySite(b *testing.B) {
	lx, ly, lz, lt := latticeFor(common.SizeSmall)
	g, err := NewGeometry(lx, ly, lz, lt, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	d := NewDiracClover(g, NewGauge(g, 7), Kappa, Csw)
	src, dst := randomField(g, 11), g.NewField()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d.Apply(dst, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.LocalVol()), "ns/site")
}
