package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// loadWorkspace assembles p into ws the way hot-path callers do.
func loadWorkspace(ws *Workspace, p Problem) {
	ws.Begin(len(p.C))
	for i, row := range p.A {
		copy(ws.AppendRow(p.B[i]), row)
	}
}

// TestWorkspaceMatchesSolve: the workspace path must agree with the
// compatibility wrapper on status, objective, and maximizer across random
// feasible problems.
func TestWorkspaceMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ws := Get()
	defer Put(ws)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(25)
		p := feasibleOrigin(rng, n, m)
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		loadWorkspace(ws, p)
		got := ws.SolveMax(p.C)
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v, want %v", trial, got.Status, want.Status)
		}
		if got.Status == Optimal {
			if !approx(got.Objective, want.Objective, 1e-8) {
				t.Fatalf("trial %d: objective %v, want %v", trial, got.Objective, want.Objective)
			}
			for j := range got.X {
				if !approx(got.X[j], want.X[j], 1e-8) {
					t.Fatalf("trial %d: X[%d] = %v, want %v", trial, j, got.X[j], want.X[j])
				}
			}
		}
	}
}

// TestWorkspaceInfeasibleAndUnbounded covers the non-optimal statuses on the
// workspace path, including reuse across statuses.
func TestWorkspaceInfeasibleAndUnbounded(t *testing.T) {
	ws := Get()
	defer Put(ws)

	loadWorkspace(ws, Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{-1}})
	if res := ws.SolveMax([]float64{1}); res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	loadWorkspace(ws, Problem{C: []float64{1, 0}, A: [][]float64{{0, 1}}, B: []float64{5}})
	if res := ws.SolveMax([]float64{1, 0}); res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
	// Reuse after failure statuses must still solve correctly.
	loadWorkspace(ws, Problem{C: []float64{3, 2}, A: [][]float64{{1, 1}, {1, 3}}, B: []float64{4, 6}})
	res := ws.SolveMax([]float64{3, 2})
	if res.Status != Optimal || !approx(res.Objective, 12, 1e-8) {
		t.Fatalf("got %v obj=%v, want optimal 12", res.Status, res.Objective)
	}
}

// TestWorkspaceNoConstraints covers the m == 0 trivial path: no allocation
// beyond the (reused) zero point, correct statuses.
func TestWorkspaceNoConstraints(t *testing.T) {
	ws := Get()
	defer Put(ws)
	ws.Begin(2)
	res := ws.SolveMax([]float64{-1, -2})
	if res.Status != Optimal || res.Objective != 0 {
		t.Fatalf("got %v obj=%v, want optimal 0", res.Status, res.Objective)
	}
	if len(res.X) != 2 || res.X[0] != 0 || res.X[1] != 0 {
		t.Fatalf("X = %v, want origin", res.X)
	}
	ws.Begin(1)
	if res := ws.SolveMax([]float64{1}); res.Status != Unbounded {
		t.Fatalf("got %v, want unbounded", res.Status)
	}
}

// TestSolveStatusMatchesSolve: the status-only entry point agrees with Solve.
func TestSolveStatusMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	probs := []Problem{
		{C: []float64{1}, A: [][]float64{{1}}, B: []float64{-1}},
		{C: []float64{1, 0}, A: [][]float64{{0, 1}}, B: []float64{5}},
		{C: []float64{-1, -2}},
		feasibleOrigin(rng, 3, 10),
	}
	for i, p := range probs {
		want, err1 := Solve(p)
		got, err2 := SolveStatus(p)
		if err1 != nil || err2 != nil {
			t.Fatalf("case %d: errs %v %v", i, err1, err2)
		}
		if got != want.Status {
			t.Fatalf("case %d: SolveStatus = %v, Solve = %v", i, got, want.Status)
		}
	}
	if _, err := SolveStatus(Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}); err == nil {
		t.Error("expected shape error")
	}
}

// TestWorkspaceSolveZeroAllocs is the allocation regression gate of the
// zero-allocation kernel: after one warm-up solve grows the buffers, a
// steady-state Begin/AppendRow/SolveMax cycle must not touch the heap.
func TestWorkspaceSolveZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := Get()
	defer Put(ws)
	// One problem the origin is feasible for, one that needs phase 1.
	for _, p := range []Problem{feasibleOrigin(rng, 4, 40), mixedLP(rng, shapeBounded, 4, 40, 0)} {
		solve := func() {
			loadWorkspace(ws, p)
			if res := ws.SolveMax(p.C); res.Status != Optimal {
				t.Fatalf("status = %v, want optimal", res.Status)
			}
		}
		solve() // warm up: grow all buffers
		if allocs := testing.AllocsPerRun(100, solve); allocs != 0 {
			t.Fatalf("steady-state Workspace.Solve allocates %.1f objects per run (%d negative rhs), want 0",
				allocs, negatives(p.B))
		}
	}
	p := feasibleOrigin(rng, 4, 40)
	// The trivial m == 0 path must be allocation-free too.
	trivial := func() {
		ws.Begin(4)
		if res := ws.SolveMax(p.C[:4]); res.Status != Optimal && res.Status != Unbounded {
			t.Fatalf("unexpected status %v", res.Status)
		}
	}
	trivial()
	if allocs := testing.AllocsPerRun(100, trivial); allocs != 0 {
		t.Fatalf("m==0 Workspace.Solve allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPivotsCounted: the process-wide pivot tally moves by a solve's pivots,
// once per solve, and a solve that reaches its optimum never counts as
// budget-exhausted.
func TestPivotsCounted(t *testing.T) {
	ws := Get()
	defer Put(ws)
	p := Problem{C: []float64{3, 2}, A: [][]float64{{1, 1}, {1, 3}}, B: []float64{4, 6}}
	loadWorkspace(ws, p)
	before, exhausted := Pivots(), BudgetExhausted()
	if res := ws.SolveMax(p.C); res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if got := Pivots() - before; got != ws.pivots || got == 0 {
		t.Fatalf("Pivots moved by %d, the solve made %d", got, ws.pivots)
	}
	ws.Begin(2)
	ws.SolveMax([]float64{-1, -1}) // no rows, no pivots
	if got := Pivots() - before; got != 1 {
		t.Fatalf("Pivots moved by %d over a one-pivot and a no-pivot solve, want 1", got)
	}
	if BudgetExhausted() != exhausted {
		t.Fatal("a solved-to-optimality LP counted as budget-exhausted")
	}
}

// sameResult reports whether two results agree bit for bit: status,
// objective and maximizer.
func sameResult(a, b Result) bool {
	if a.Status != b.Status || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		return false
	}
	for j, v := range a.X {
		if math.Float64bits(v) != math.Float64bits(b.X[j]) {
			return false
		}
	}
	return true
}

// TestSolveMaxReusesStart: objectives solved one after another over one
// constraint set start from the phase-1 basis of the first, and each result
// equals, bit for bit, the same objective solved on a fresh workspace; the
// repeats make fewer pivots; and rows changed by AppendRow or Begin are
// solved from a start of their own.
func TestSolveMaxReusesStart(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	ws := new(Workspace)
	fresh := func(p Problem, c []float64) (Result, uint64) {
		f := new(Workspace)
		loadWorkspace(f, p)
		res := f.SolveMax(c)
		res.X = slices.Clone(res.X)
		return res, f.pivots
	}
	type shaped struct {
		name string
		p    Problem
		want Status // of p.C
	}
	var probs []shaped
	for trial := 0; trial < 40; trial++ {
		n, m := 1+rng.Intn(6), 5+rng.Intn(60)
		if trial%10 == 0 {
			n, m = 2+rng.Intn(3), 400+rng.Intn(400) // tall
		}
		probs = append(probs,
			shaped{"bounded", mixedLP(rng, shapeBounded, n, m, 0), Optimal},
			shaped{"unbounded", mixedLP(rng, shapeUnbounded, n, m, 0), Unbounded},
			shaped{"degenerate slab", mixedLP(rng, shapeSlab, n, m, 0), Optimal},
			shaped{"empty slab", mixedLP(rng, shapeSlab, n, m, 1e-6), Infeasible},
			shaped{"below zero", mixedLP(rng, shapeBelowZero, n, m, feasTol+1e-6), Infeasible},
		)
	}
	var saved, freshPivots, reusedPivots uint64
	for i, pr := range probs {
		p, n := pr.p, len(pr.p.C)
		objectives := [][]float64{p.C}
		for len(objectives) < 5 {
			objectives = append(objectives, unitRow(rng, n))
		}
		loadWorkspace(ws, p)
		for k, c := range objectives {
			want, wantPivots := fresh(p, c)
			before := Pivots()
			got := ws.SolveMax(c)
			pivots := Pivots() - before
			if k == 0 && got.Status != pr.want {
				t.Fatalf("%s %d: status %v, built to be %v", pr.name, i, got.Status, pr.want)
			}
			if !sameResult(got, want) {
				t.Fatalf("%s %d objective %d: %v %v at %v on a reused start, %v %v at %v fresh",
					pr.name, i, k, got.Status, got.Objective, got.X, want.Status, want.Objective, want.X)
			}
			if k == 0 {
				if pivots != wantPivots {
					t.Fatalf("%s %d: first solve made %d pivots, a fresh one %d", pr.name, i, pivots, wantPivots)
				}
				continue
			}
			if pivots > wantPivots {
				t.Fatalf("%s %d objective %d: %d pivots on a reused start, %d fresh", pr.name, i, k, pivots, wantPivots)
			}
			freshPivots += wantPivots
			reusedPivots += pivots
			if negatives(p.B) > 0 && pivots < wantPivots {
				saved++
			}
		}
	}
	if saved == 0 || reusedPivots >= freshPivots {
		t.Fatalf("repeated objectives made %d pivots against %d fresh (%d solves saved any)", reusedPivots, freshPivots, saved)
	}
	t.Logf("repeated objectives: %d pivots, %d fresh", reusedPivots, freshPivots)

	// A row appended after a solve, or a new constraint set after Begin,
	// must not be solved from the old start: each change here turns a
	// nonempty set empty, which a kept start would still call optimal.
	p := mixedLP(rng, shapeBounded, 3, 30, 0)
	empty := func(q Problem) Problem {
		u := unitRow(rng, 3)
		for j := range u {
			u[j] = math.Abs(u[j])
		}
		q.A = append(slices.Clone(q.A), u)
		q.B = append(slices.Clone(q.B), -1)
		return q
	}
	loadWorkspace(ws, p)
	if res := ws.SolveMax(p.C); res.Status != Optimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	last := empty(p)
	copy(ws.AppendRow(last.B[len(last.B)-1]), last.A[len(last.A)-1])
	if res := ws.SolveMax(p.C); res.Status != Infeasible {
		t.Fatalf("after AppendRow: status %v, want infeasible", res.Status)
	}
	// And back: Begin and the original rows must find the optimum again.
	loadWorkspace(ws, p)
	want, _ := fresh(p, p.C)
	if res := ws.SolveMax(p.C); !sameResult(res, want) {
		t.Fatalf("after Begin: %v %v, fresh %v %v", res.Status, res.Objective, want.Status, want.Objective)
	}
	q := empty(mixedLP(rng, shapeBounded, 3, 30, 0))
	loadWorkspace(ws, q)
	if res := ws.SolveMax(q.C); res.Status != Infeasible {
		t.Fatalf("after Begin with other rows: status %v, want infeasible", res.Status)
	}
}

// negatives counts the rows whose rhs puts the origin outside them.
func negatives(b []float64) int {
	n := 0
	for _, v := range b {
		if v < 0 {
			n++
		}
	}
	return n
}

// TestTableauIsLinearInRows pins the condensed layout: the tableau of an
// m-row problem is m rows of n+2 floats whatever share of them needs an
// artificial, where the full tableau spent a column per row and another per
// negative rhs (~48 MB here).
func TestTableauIsLinearInRows(t *testing.T) {
	const n = 3
	p := mixedLP(rand.New(rand.NewSource(5)), shapeBounded, n, 2000, 0)
	m := len(p.A)
	if neg := negatives(p.B); neg < m/3 || neg > 2*m/3 {
		t.Fatalf("%d of %d rhs negative, want about half", neg, m)
	}
	ws := new(Workspace) // not pooled: its capacity is this problem's alone
	loadWorkspace(ws, p)
	if res := ws.SolveMax(p.C); res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if limit := 2 * m * (n + 2); cap(ws.tab) > limit {
		t.Fatalf("tableau holds %d floats for m=%d n=%d, want at most %d", cap(ws.tab), m, n, limit)
	}
}

// BenchmarkLPSolve measures the steady-state workspace solve on a
// geometry-sized problem (4 vars, 40 rows — a mid-build cell feasibility
// LP), with the legacy allocate-per-call wrapper as the contrast series.
func BenchmarkLPSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := feasibleOrigin(rng, 4, 40)
	b.Run("workspace", func(b *testing.B) {
		ws := Get()
		defer Put(ws)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loadWorkspace(ws, p)
			if res := ws.SolveMax(p.C); res.Status != Optimal {
				b.Fatalf("status = %v", res.Status)
			}
		}
	})
	b.Run("wrapper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The insert path's shape: a Definition-2 region at d=3 is two variables
	// under a hundred-odd rows, about half of which exclude the origin.
	tall := mixedLP(rng, shapeBounded, 2, 131, 0) // 150 rows in all
	b.Run("tall-phase1", func(b *testing.B) {
		ws := Get()
		defer Put(ws)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loadWorkspace(ws, tall)
			if res := ws.SolveMax(tall.C); res.Status != Optimal {
				b.Fatalf("status = %v", res.Status)
			}
		}
	})
}
