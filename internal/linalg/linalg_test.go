package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

func TestMulKnown(t *testing.T) {
	a := &Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Mat{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 3, 5)
	tt := m.T().T()
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatal("T().T() != identity")
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		m := randMat(rng, n, n)
		// Diagonal dominance guarantees invertibility.
		for i := 0; i < n; i++ {
			m.Set(i, i, m.At(i, i)+float64(n))
		}
		inv, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		prod := m.Mul(inv)
		id := Identity(n)
		if d := prod.Sub(id).FrobNorm(); d > 1e-9 {
			t.Errorf("trial %d: ‖M·M⁻¹ - I‖ = %g", trial, d)
		}
	}
}

func TestSingularInverseFails(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 4}}
	if _, err := m.Inverse(); err == nil {
		t.Error("singular matrix inverted")
	}
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Error("non-square matrix inverted")
	}
}

func TestProjectorProperties(t *testing.T) {
	// Proposition 3.1: W = D(DᵀD)⁻¹Dᵀ is the orthogonal projector onto
	// col(D): symmetric, idempotent, fixes columns of D.
	rng := rand.New(rand.NewSource(3))
	d := randMat(rng, 8, 3)
	w, err := Projector(d)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric.
	if diff := w.Sub(w.T()).FrobNorm(); diff > 1e-9 {
		t.Errorf("W not symmetric: %g", diff)
	}
	// Idempotent: W² = W.
	if diff := w.Mul(w).Sub(w).FrobNorm(); diff > 1e-9 {
		t.Errorf("W not idempotent: %g", diff)
	}
	// Fixes col(D): W·D = D.
	if diff := w.Mul(d).Sub(d).FrobNorm(); diff > 1e-9 {
		t.Errorf("W·D ≠ D: %g", diff)
	}
	// Annihilates the orthogonal complement: for random v, Wv ∈ col(D)
	// means W(Wv) = Wv (already covered by idempotency).
}

func TestProjectorEqualsUUT(t *testing.T) {
	// The paper's security argument: W = UUᵀ for an orthonormal basis U
	// of col(D). U is the first four columns of a Householder reflection
	// (orthogonal by construction) and D = U·A for an invertible A, so
	// col(D) = col(U) while D itself is far from orthonormal.
	rng := rand.New(rand.NewSource(4))
	v := randMat(rng, 10, 1).Data
	u := New(10, 4)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			u.Set(i, j, -2*v[i]*v[j]/Dot(v, v))
		}
		if i < 4 {
			u.Set(i, i, u.At(i, i)+1)
		}
	}
	a := randMat(rng, 4, 4)
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+4)
	}
	w, err := Projector(u.Mul(a))
	if err != nil {
		t.Fatal(err)
	}
	if diff := w.Sub(u.Mul(u.T())).FrobNorm(); diff > 1e-8 {
		t.Errorf("W ≠ UUᵀ: %g", diff)
	}
}

func TestMulVec(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	got := m.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestColSetColClone(t *testing.T) {
	m := New(3, 2)
	m.SetCol(1, []float64{1, 2, 3})
	c := m.Col(1)
	if c[0] != 1 || c[2] != 3 {
		t.Errorf("Col = %v", c)
	}
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases data")
	}
}

func TestDotNormPanics(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{1, 2}) != 5 {
		t.Error("Dot wrong")
	}
	if math.Abs(Norm([]float64{3, 4})-5) > 1e-12 {
		t.Error("Norm wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
