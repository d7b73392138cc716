// Package linalg provides the small dense linear-algebra kernel the data
// pre-processing stage needs (paper §3.2.1): matrix products, Gaussian
// inverse, the Gram pseudo-inverse behind W = D(DᵀD)⁻¹Dᵀ, and modified
// Gram-Schmidt orthonormalization.
package linalg

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix.
func New(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Col extracts column j as a slice.
func (m *Mat) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

// SetCol assigns column j.
func (m *Mat) SetCol(j int, v []float64) {
	for i := range v {
		m.Set(i, j, v[i])
	}
}

// T returns the transpose.
func (m *Mat) T() *Mat {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·o.
func (m *Mat) Mul(o *Mat) *Mat {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: dim mismatch %dx%d · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := New(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.Cols; j++ {
				out.Data[i*out.Cols+j] += a * o.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns m·x.
func (m *Mat) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dim mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		acc := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			acc += v * x[j]
		}
		out[i] = acc
	}
	return out
}

// Inverse returns m⁻¹ via Gauss-Jordan elimination with partial pivoting.
func (m *Mat) Inverse() (*Mat, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: inverse of non-square %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("linalg: singular matrix (pivot %d)", col)
		}
		if pivot != col {
			a.swapRows(col, pivot)
			inv.swapRows(col, pivot)
		}
		// Normalize.
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func (m *Mat) swapRows(i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Identity returns the n×n identity.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Projector returns the orthogonal projector onto the column space of D:
// W = D(DᵀD)⁻¹Dᵀ — Proposition 3.1's W = UUᵀ.
func Projector(d *Mat) (*Mat, error) {
	gram := d.T().Mul(d)
	inv, err := gram.Inverse()
	if err != nil {
		return nil, fmt.Errorf("linalg: projector: %w", err)
	}
	return d.Mul(inv).Mul(d.T()), nil
}

// Dot returns ⟨a, b⟩.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	acc := 0.0
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// Norm returns the Euclidean norm.
func Norm(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// FrobNorm returns the Frobenius norm of the matrix.
func (m *Mat) FrobNorm() float64 { return Norm(m.Data) }

// Sub returns m - o.
func (m *Mat) Sub(o *Mat) *Mat {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("linalg: sub shape mismatch")
	}
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - o.Data[i]
	}
	return out
}
