package ccsqcd

import "math/cmplx"

// The Wilson fermion operator:
//
//	D psi(x) = psi(x) - kappa * sum_mu [ (1-gamma_mu) U_mu(x)   psi(x+mu)
//	                                   + (1+gamma_mu) U_mu†(x-mu) psi(x-mu) ]
//
// Spin structure uses hermitian Dirac-basis gamma matrices; the solver
// (BiCGStab) needs only that D is a consistent nonsingular linear
// operator, which the residual check verifies end to end.

// spinMat is a 4x4 complex spin matrix.
type spinMat [4][4]complex128

// gamma returns the four Dirac gamma matrices.
func gamma() [4]spinMat {
	i := complex(0, 1)
	var gx, gy, gz, gt spinMat
	gx = spinMat{
		{0, 0, 0, i},
		{0, 0, i, 0},
		{0, -i, 0, 0},
		{-i, 0, 0, 0},
	}
	gy = spinMat{
		{0, 0, 0, 1},
		{0, 0, -1, 0},
		{0, -1, 0, 0},
		{1, 0, 0, 0},
	}
	gz = spinMat{
		{0, 0, i, 0},
		{0, 0, 0, -i},
		{-i, 0, 0, 0},
		{0, i, 0, 0},
	}
	gt = spinMat{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, -1, 0},
		{0, 0, 0, -1},
	}
	return [4]spinMat{gx, gy, gz, gt}
}

// projectors precomputes (1 - gamma_mu) and (1 + gamma_mu).
func projectors() (minus, plus [4]spinMat) {
	gs := gamma()
	for mu := 0; mu < 4; mu++ {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				var id complex128
				if a == b {
					id = 1
				}
				minus[mu][a][b] = id - gs[mu][a][b]
				plus[mu][a][b] = id + gs[mu][a][b]
			}
		}
	}
	return minus, plus
}

// Dirac is the Wilson(-Clover) operator bound to one rank's slab.
type Dirac struct {
	G *Geometry
	U *Gauge
	// Kappa and Csw (the clover coefficient; zero disables the clover
	// term) are fixed at construction: the spin tables below are
	// scaled by them.
	Kappa  float64
	Csw    float64
	fwd    [4]spinRows // kappa (1 - gamma_mu)
	bwd    [4]spinRows // kappa (1 + gamma_mu)
	sigma  [6]spinRows // (csw kappa / 2) sigma_{mu nu}
	clover *Clover
}

// NewDirac builds the plain Wilson operator.
func NewDirac(g *Geometry, u *Gauge, kappa float64) *Dirac {
	d := &Dirac{G: g, U: u, Kappa: kappa}
	pm, pp := projectors()
	k := complex(kappa, 0)
	for mu := range pm {
		d.fwd[mu] = newSpinRows(&pm[mu], k)
		d.bwd[mu] = newSpinRows(&pp[mu], k)
	}
	return d
}

// NewDiracClover builds the Wilson-Clover operator the CCS QCD miniapp
// actually solves: the Wilson hopping term plus the site-local clover
// improvement with coefficient csw.
func NewDiracClover(g *Geometry, u *Gauge, kappa, csw float64) *Dirac {
	d := NewDirac(g, u, kappa)
	d.Csw = csw
	sigma := sigmaMunu()
	coef := complex(csw*kappa/2, 0)
	for p := range sigma {
		d.sigma[p] = newSpinRows(&sigma[p], coef)
	}
	d.clover = NewClover(g, u)
	return d
}

// FlopsPerSite is the modelled cost of one Wilson dslash site update
// (the standard count for a non-eo Wilson operator is ~1464 with
// generic spin matrices; the literature value for projector-tricked
// code is 1320). The host numerics deliberately keep the dense-order
// arithmetic of the generic spin matrices, zero entries skipped, and
// do not use the projector trick: it would reorder the floating-point
// sums and move the solver's residual check. The modelled constant is
// the A64FX code's count, not the host's.
const FlopsPerSite = 1320

// spinTerm is one nonzero entry (a, b) of a scaled spin matrix, with
// kc = coef * S[a][b].
type spinTerm struct {
	a, b int
	kc   complex128
}

// spinRows is a scaled 4x4 spin matrix kept sparse: its nonzero terms
// row by row, each row in ascending column order, and the columns any
// term reads.
type spinRows struct {
	terms []spinTerm
	cols  [4]bool
}

// newSpinRows keeps the nonzero entries of coef * s. Each kc is the
// same complex product a dense 4x4 loop forms per site, so a sweep
// over the terms is bit-identical to that loop.
func newSpinRows(s *spinMat, coef complex128) spinRows {
	var r spinRows
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if s[a][b] == 0 {
				continue
			}
			r.terms = append(r.terms, spinTerm{a: a, b: b, kc: coef * s[a][b]})
			r.cols[b] = true
		}
	}
	return r
}

// spinApply accumulates out[a] -= sum_b kc(a,b) chi[b] (12 complex),
// term by term in the dense 4x4 loop's order.
func spinApply(out []complex128, r *spinRows, chi *[4][3]complex128) {
	for _, t := range r.terms {
		o := out[t.a*3 : t.a*3+3 : t.a*3+3]
		c := &chi[t.b]
		o[0] -= t.kc * c[0]
		o[1] -= t.kc * c[1]
		o[2] -= t.kc * c[2]
	}
}

// hop accumulates -r ⊗ M src(site) into out (12 complex), with M the
// link or, for dagger, its conjugate transpose. Only the spin columns
// r reads get a colour multiply.
func hop(out []complex128, r *spinRows, m *SU3, src []complex128, dagger bool) {
	var chi [4][3]complex128
	for s := 0; s < 4; s++ {
		if !r.cols[s] {
			continue
		}
		v := src[s*3 : s*3+3 : s*3+3]
		c := &chi[s]
		if dagger {
			c[0] = cmplx.Conj(m[0])*v[0] + cmplx.Conj(m[3])*v[1] + cmplx.Conj(m[6])*v[2]
			c[1] = cmplx.Conj(m[1])*v[0] + cmplx.Conj(m[4])*v[1] + cmplx.Conj(m[7])*v[2]
			c[2] = cmplx.Conj(m[2])*v[0] + cmplx.Conj(m[5])*v[1] + cmplx.Conj(m[8])*v[2]
		} else {
			c[0] = m[0]*v[0] + m[1]*v[1] + m[2]*v[2]
			c[1] = m[3]*v[0] + m[4]*v[1] + m[5]*v[2]
			c[2] = m[6]*v[0] + m[7]*v[1] + m[8]*v[2]
		}
	}
	spinApply(out, r, &chi)
}

// ApplySite computes dst(x) = (D src)(x) for one interior site.
func (d *Dirac) ApplySite(dst, src Field, x, y, z, t int) {
	g := d.G
	site := g.Index(x, y, z, t)
	out := dst.At(site)
	in := src.At(site)
	copy(out, in) // identity term

	// Spatial neighbours are periodic inside the slab.
	xp, xm := (x+1)%g.LX, (x-1+g.LX)%g.LX
	yp, ym := (y+1)%g.LY, (y-1+g.LY)%g.LY
	zp, zm := (z+1)%g.LZ, (z-1+g.LZ)%g.LZ

	type nb struct {
		mu      int
		fwdSite int // x+mu
		bwdSite int // x-mu
	}
	nbs := [4]nb{
		{0, g.Index(xp, y, z, t), g.Index(xm, y, z, t)},
		{1, g.Index(x, yp, z, t), g.Index(x, ym, z, t)},
		{2, g.Index(x, y, zp, t), g.Index(x, y, zm, t)},
		{3, g.Index(x, y, z, t+1), g.Index(x, y, z, t-1)},
	}
	for _, n := range nbs {
		// Forward: (1-gamma) U_mu(x) psi(x+mu).
		hop(out, &d.fwd[n.mu], &d.U.U[n.mu][site], src.At(n.fwdSite), false)
		// Backward: (1+gamma) U_mu†(x-mu) psi(x-mu).
		hop(out, &d.bwd[n.mu], &d.U.U[n.mu][n.bwdSite], src.At(n.bwdSite), true)
	}
	if d.clover != nil {
		d.applyClover(out, in, site)
	}
}

// ApplySlice applies D to every site of local time-slice t.
func (d *Dirac) ApplySlice(dst, src Field, t int) {
	g := d.G
	for z := 0; z < g.LZ; z++ {
		for y := 0; y < g.LY; y++ {
			for x := 0; x < g.LX; x++ {
				d.ApplySite(dst, src, x, y, z, t)
			}
		}
	}
}

// Apply is the serial reference: D over the whole slab (halos must be
// current).
func (d *Dirac) Apply(dst, src Field) {
	for t := 0; t < d.G.LTloc; t++ {
		d.ApplySlice(dst, src, t)
	}
}

// SiteOfLinear converts a linear interior-site index (0..LocalVol) to
// coordinates; used to parallelize over sites.
func (g *Geometry) SiteOfLinear(i int) (x, y, z, t int) {
	x = i % g.LX
	i /= g.LX
	y = i % g.LY
	i /= g.LY
	z = i % g.LZ
	t = i / g.LZ
	return
}
