package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Dot(a, b); got != 12 {
		t.Fatalf("dot %v, want 12", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("norm %v, want 5", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAddSubScaleAXPY(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if s := Sub(b, a); s[0] != 2 || s[1] != 3 {
		t.Fatalf("sub %v", s)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if SqDist(a, b) != 25 {
		t.Fatalf("sqdist %v", SqDist(a, b))
	}
	if Dist(a, b) != 5 {
		t.Fatalf("dist %v", Dist(a, b))
	}
}

func TestCentroid(t *testing.T) {
	X := [][]float64{{0, 0}, {2, 4}, {4, 2}}
	c := Centroid(X)
	if c[0] != 2 || c[1] != 2 {
		t.Fatalf("centroid %v", c)
	}
}

func TestColumnStatsAndStandardize(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	mean, std := ColumnStats(X)
	if mean[0] != 3 || mean[1] != 10 {
		t.Fatalf("mean %v", mean)
	}
	if !almost(std[0], math.Sqrt(8.0/3), 1e-12) {
		t.Fatalf("std %v", std)
	}
	if std[1] != 1 {
		t.Fatalf("zero-variance column should get std 1, got %v", std[1])
	}
	Z := Standardize(X, mean, std)
	zm, zs := ColumnStats(Z)
	if !almost(zm[0], 0, 1e-12) || !almost(zs[0], 1, 1e-12) {
		t.Fatalf("standardized stats mean=%v std=%v", zm, zs)
	}
}

func TestCovarianceKnown(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 6}}
	cov := Covariance(X)
	// var(x)=1, var(y)=4, cov=2 (population).
	if !almost(cov[0][0], 1, 1e-12) || !almost(cov[1][1], 4, 1e-12) || !almost(cov[0][1], 2, 1e-12) {
		t.Fatalf("covariance %v", cov)
	}
	if cov[0][1] != cov[1][0] {
		t.Fatal("covariance not symmetric")
	}
}

func TestCholeskySolve(t *testing.T) {
	A := [][]float64{{4, 2}, {2, 3}}
	b := []float64{10, 9}
	L, err := Cholesky(A)
	if err != nil {
		t.Fatal(err)
	}
	x := CholeskySolve(L, b)
	// verify A x = b
	r := MatVec(A, x)
	if !almost(r[0], 10, 1e-9) || !almost(r[1], 9, 1e-9) {
		t.Fatalf("solve residual %v", r)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	A := [][]float64{{1, 2}, {2, 1}} // eigenvalues 3, -1
	if _, err := Cholesky(A); err == nil {
		t.Fatal("expected ErrNotPosDef")
	}
}

func TestSolveSPDRandomProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		d := 2 + rng.Intn(6)
		// Random SPD: A = B Bᵀ + I.
		B := make([][]float64, d)
		for i := range B {
			B[i] = make([]float64, d)
			for j := range B[i] {
				B[i][j] = rng.Normal(0, 1)
			}
		}
		A := make([][]float64, d)
		for i := range A {
			A[i] = make([]float64, d)
			for j := range A[i] {
				for k := 0; k < d; k++ {
					A[i][j] += B[i][k] * B[j][k]
				}
				if i == j {
					A[i][j]++
				}
			}
		}
		b := make([]float64, d)
		for i := range b {
			b[i] = rng.Normal(0, 1)
		}
		x, err := SolveSPD(A, b)
		if err != nil {
			return false
		}
		r := MatVec(A, x)
		for i := range r {
			if !almost(r[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseIdentityProperty(t *testing.T) {
	rng := stats.NewRNG(9)
	d := 4
	A := make([][]float64, d)
	for i := range A {
		A[i] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Normal(0, 1)
			A[i][j] += v
			A[j][i] += v
		}
		A[i][i] += float64(d) * 2
	}
	inv, err := Inverse(A)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			got := 0.0
			for k := 0; k < d; k++ {
				got += A[i][k] * inv[k][j]
			}
			if !almost(got, want, 1e-8) {
				t.Fatalf("A*inv(A)[%d][%d] = %v", i, j, got)
			}
		}
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	A := [][]float64{{3, 0}, {0, 1}}
	values, vectors := SymEigen(A)
	if !almost(values[0], 3, 1e-10) || !almost(values[1], 1, 1e-10) {
		t.Fatalf("eigenvalues %v", values)
	}
	// Eigenvector for 3 should align with e1.
	if math.Abs(vectors[0][0]) < 0.99 {
		t.Fatalf("leading eigenvector %v", vectors[0])
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	A := [][]float64{
		{4, 1, 0.5},
		{1, 3, 0.2},
		{0.5, 0.2, 2},
	}
	values, vectors := SymEigen(A)
	// A v = lambda v for each eigenpair.
	for e := range values {
		v := vectors[e]
		Av := MatVec(A, v)
		for i := range Av {
			if !almost(Av[i], values[e]*v[i], 1e-8) {
				t.Fatalf("eigenpair %d: Av=%v lambda*v=%v", e, Av[i], values[e]*v[i])
			}
		}
	}
	// Sorted descending.
	for e := 1; e < len(values); e++ {
		if values[e] > values[e-1] {
			t.Fatalf("eigenvalues not sorted: %v", values)
		}
	}
	// Trace preserved.
	sum := values[0] + values[1] + values[2]
	if !almost(sum, 9, 1e-8) {
		t.Fatalf("trace %v, want 9", sum)
	}
}

func TestCloneIsDeep(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}}
	Y := Clone(X)
	Y[0][0] = 99
	if X[0][0] != 1 {
		t.Fatal("clone aliases original")
	}
}
