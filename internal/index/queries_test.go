package index

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tlevelindex/internal/geom"
)

// bruteRank returns the 1-based rank of option oid (original dataset index)
// at reduced weight x.
func bruteRank(data [][]float64, oid int, x []float64) int {
	s := geom.Score(data[oid], x)
	rank := 1
	for i := range data {
		if i != oid && geom.Score(data[i], x) > s {
			rank++
		}
	}
	return rank
}

func TestKSPRHotelExample(t *testing.T) {
	// Paper Figure 3(a): kSPR(2, VibesInn) returns C1 and C5, i.e. the
	// regions [0, 0.5] and [0.5, 0.8] where r1 ranks top-2.
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	var focal int32 = -1
	for fid, oid := range ix.OrigIDs {
		if oid == 0 {
			focal = int32(fid)
		}
	}
	res := ix.KSPR(2, focal)
	if len(res.Cells) != 2 {
		t.Fatalf("kSPR returned %d cells, want 2", len(res.Cells))
	}
	var sigs []string
	for _, id := range res.Cells {
		sigs = append(sigs, cellSignature(ix, id))
	}
	sort.Strings(sigs)
	if !reflect.DeepEqual(sigs, []string{"[0 1]|0", "[0]|0"}) {
		t.Errorf("kSPR cells = %v", sigs)
	}
	// The paper's walk visits 5 cells for this query; the option→cells
	// column reads the 2 it reports.
	if res.Stats.VisitedCells != 2 {
		t.Errorf("visited cells = %d, want 2", res.Stats.VisitedCells)
	}
}

func TestKSPRMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for trial := 0; trial < 6; trial++ {
		n := 12 + rng.Intn(25)
		d := 2 + rng.Intn(2)
		tau := 3
		data := randData(rng, n, d)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tau})
		k := 2
		for fi := 0; fi < len(ix.Pts); fi += 3 {
			focal := int32(fi)
			res := ix.KSPR(k, focal)
			regions := make([]*geom.Region, len(res.Cells))
			for i, id := range res.Cells {
				regions[i] = ix.Region(id)
			}
			for probe := 0; probe < 60; probe++ {
				x := randReduced(rng, d-1)
				inSome := false
				for _, reg := range regions {
					if reg.ContainsPoint(x, 1e-7) {
						inSome = true
						break
					}
				}
				rank := bruteRank(data, ix.OrigIDs[focal], x)
				if rank <= k && !inSome {
					t.Fatalf("trial %d: rank %d <= %d at %v but not in any kSPR region", trial, rank, k, x)
				}
				if rank > k && inSome {
					t.Fatalf("trial %d: rank %d > %d at %v but inside a kSPR region", trial, rank, k, x)
				}
			}
		}
	}
}

func TestUTKHotelExample(t *testing.T) {
	// Paper Figure 3(b): UTK(3, [0.35, 0.45]) returns hotels r1..r4 with
	// partitioning into C8 and C9.
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	res := ix.UTK(3, geom.NewBox([]float64{0.35}, []float64{0.45}))
	var opts []int
	for _, o := range res.Options {
		opts = append(opts, ix.OrigIDs[o])
	}
	if !reflect.DeepEqual(opts, []int{0, 1, 2, 3}) {
		t.Errorf("UTK options = %v, want [0 1 2 3]", opts)
	}
	if len(res.Partitions) != 2 {
		t.Errorf("UTK partitions = %d, want 2", len(res.Partitions))
	}
}

func TestUTKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 6; trial++ {
		n := 12 + rng.Intn(25)
		d := 2 + rng.Intn(2)
		k := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: k})
		// Random box inside the simplex.
		dim := d - 1
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		c := randReduced(rng, dim)
		for j := 0; j < dim; j++ {
			lo[j] = math.Max(0, c[j]-0.1)
			hi[j] = c[j] + 0.1
		}
		box := geom.NewBox(lo, hi)
		res := ix.UTK(k, box)
		gotSet := make(map[int]bool)
		for _, o := range res.Options {
			gotSet[ix.OrigIDs[o]] = true
		}
		// Every brute-force top-k member at sampled in-box weights must be
		// in the reported option union.
		boxReg := box.Region()
		pts := boxReg.RandomInteriorPoints(120, rng.Float64)
		for _, x := range pts {
			for _, oid := range bruteTopK(data, x, k) {
				if !gotSet[oid] {
					t.Fatalf("trial %d: top-%d member %d at %v missing from UTK options", trial, k, oid, x)
				}
			}
		}
		// Each partition's result set must equal the brute-force top-k set
		// at an interior point of (partition ∩ box).
		for _, part := range res.Partitions {
			reg := ix.Region(part.Cell)
			reg.Add(box.Halfspaces()...)
			inner := reg.RandomInteriorPoints(5, rng.Float64)
			if inner == nil {
				t.Fatalf("trial %d: partition %d does not intersect the box", trial, part.Cell)
			}
			wantSet := map[int]bool{}
			for _, oid := range bruteTopK(data, inner[0], k) {
				wantSet[oid] = true
			}
			if len(wantSet) != len(part.TopK) {
				t.Fatalf("trial %d: partition sizes differ", trial)
			}
			for _, o := range part.TopK {
				if !wantSet[ix.OrigIDs[o]] {
					t.Fatalf("trial %d: partition top-k has %d not in brute-force set", trial, ix.OrigIDs[o])
				}
			}
		}
	}
}

func TestORUHotelExample(t *testing.T) {
	// Paper Figure 3(c) / Table 2: ORU(k=2, w=0.3, m=3) returns
	// {VibesInn, Artezen, Yotel} with the final cell C3 at distance 0.1.
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	res := ix.ORU(2, []float64{0.3}, 3)
	var opts []int
	for _, o := range res.Options {
		opts = append(opts, ix.OrigIDs[o])
	}
	sort.Ints(opts)
	if !reflect.DeepEqual(opts, []int{0, 1, 3}) {
		t.Errorf("ORU options = %v, want [0 1 3]", opts)
	}
	if math.Abs(res.Rho-0.1) > 1e-6 {
		t.Errorf("ORU rho = %v, want 0.1", res.Rho)
	}
}

// TestORUMatchesGridOracle checks ORU against a dense-grid oracle in d=2.
func TestORUMatchesGridOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(20)
		data := randData(rng, n, 2)
		k := 2
		m := 4
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: k})
		x := []float64{rng.Float64()}
		res := ix.ORU(k, x, m)
		if len(res.Options) != m {
			t.Fatalf("trial %d: got %d options, want %d", trial, len(res.Options), m)
		}
		// Grid oracle: minimal |w - x| at which each option enters top-k.
		const grid = 4000
		minDist := make(map[int]float64)
		for g := 0; g <= grid; g++ {
			w := float64(g) / grid
			for _, oid := range bruteTopK(data, []float64{w}, k) {
				d := math.Abs(w - x[0])
				if cur, ok := minDist[oid]; !ok || d < cur {
					minDist[oid] = d
				}
			}
		}
		type od struct {
			oid int
			d   float64
		}
		var all []od
		for oid, d := range minDist {
			all = append(all, od{oid, d})
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
		// The reported rho must match the oracle's m-th distance closely.
		if len(all) >= m {
			wantRho := all[m-1].d
			if math.Abs(res.Rho-wantRho) > 2.0/grid+1e-6 {
				t.Fatalf("trial %d: rho = %v, oracle %v", trial, res.Rho, wantRho)
			}
			// Every returned option must have oracle distance <= rho (+grid slack).
			for _, o := range res.Options {
				d, ok := minDist[ix.OrigIDs[o]]
				if !ok || d > res.Rho+2.0/grid+1e-6 {
					t.Fatalf("trial %d: option %d at oracle dist %v exceeds rho %v",
						trial, ix.OrigIDs[o], d, res.Rho)
				}
			}
		}
	}
}

func TestMaxRankAgainstGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1010))
	data := randData(rng, 25, 2)
	tau := 5
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tau})
	const grid = 4000
	best := make(map[int]int)
	for g := 0; g <= grid; g++ {
		w := []float64{float64(g) / grid}
		for r, oid := range bruteTopK(data, w, tau) {
			if cur, ok := best[oid]; !ok || r+1 < cur {
				best[oid] = r + 1
			}
		}
	}
	for fid := range ix.Pts {
		got, _ := ix.MaxRank(int32(fid))
		want, ok := best[ix.OrigIDs[fid]]
		if !ok {
			want = -1
		}
		if got != want {
			t.Errorf("MaxRank(%d) = %d, grid oracle %d", ix.OrigIDs[fid], got, want)
		}
	}
}

func TestWhyNot(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	// At w=0.9, VibesInn (r1) ranks 3rd: why not top-2? The nearest top-2
	// region ends at 0.7963 (the C5 boundary).
	var focal int32 = -1
	for fid, oid := range ix.OrigIDs {
		if oid == 0 {
			focal = int32(fid)
		}
	}
	res := ix.WhyNot(focal, []float64{0.9}, 2)
	if res.RankAtW != 3 || res.InTopK {
		t.Fatalf("rank at 0.9 = %d (inTopK=%v), want 3/false", res.RankAtW, res.InTopK)
	}
	if math.Abs(res.NearestDist-(0.9-0.79630)) > 1e-3 {
		t.Errorf("nearest dist = %v, want ~0.1037", res.NearestDist)
	}
	// At w=0.3 it is already top-1.
	res2 := ix.WhyNot(focal, []float64{0.3}, 2)
	if !res2.InTopK || res2.NearestDist != 0 {
		t.Errorf("why-not at 0.3: %+v", res2)
	}
}

// TestExtensionMatchesDeeperIndex: a τ=3 index deepened by ExtendTau to 5
// must produce the same arrangements as an index built with τ=5.
func TestExtensionMatchesDeeperIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1111))
	for trial := 0; trial < 4; trial++ {
		n := 15 + rng.Intn(20)
		d := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		small := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 3})
		big := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 5})
		if err := small.ExtendTau(5); err != nil {
			t.Fatal(err)
		}
		for l := 4; l <= 5; l++ {
			var gotSigs []string
			for _, id := range small.Levels[l] {
				gotSigs = append(gotSigs, cellSignature(small, id))
			}
			sort.Strings(gotSigs)
			wantSigs := levelSignatures(big, l)
			if !reflect.DeepEqual(gotSigs, wantSigs) {
				t.Fatalf("trial %d level %d:\n got %v\nwant %v", trial, l, gotSigs, wantSigs)
			}
		}
		// Point queries across the extension boundary.
		for probe := 0; probe < 20; probe++ {
			x := randReduced(rng, d-1)
			gs, _ := small.TopK(x, 5)
			bs, _ := big.TopK(x, 5)
			for i := range gs {
				if small.OrigIDs[gs[i]] != big.OrigIDs[bs[i]] {
					t.Fatalf("trial %d: extended TopK differs at rank %d", trial, i+1)
				}
			}
		}
	}
}

// TestExtensionUsesDeeperOptions: options outside the τ-skyband must appear
// once ExtendTau deepens the index past τ.
func TestExtensionUsesDeeperOptions(t *testing.T) {
	// A chain where each option dominates the next: option i ranks i+1
	// everywhere, so the (τ+1)-skyband grows by one option per level.
	var data [][]float64
	for i := 0; i < 6; i++ {
		v := 0.9 - 0.1*float64(i)
		data = append(data, []float64{v, v})
	}
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 2})
	if ix.Stats.FilteredOptions != 2 {
		t.Fatalf("filtered = %d, want 2", ix.Stats.FilteredOptions)
	}
	if err := ix.ExtendTau(4); err != nil {
		t.Fatal(err)
	}
	got, _ := ix.TopK([]float64{0.5}, 4)
	if len(got) != 4 {
		t.Fatalf("extended TopK returned %d options", len(got))
	}
	for i, o := range got {
		if ix.OrigIDs[o] != i {
			t.Errorf("rank %d: option %d, want %d", i+1, ix.OrigIDs[o], i)
		}
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	data := randData(rng, 30, 3)
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 3})
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, buffer has %d", n, buf.Len())
	}
	if sz := ix.SizeBytes(); sz != n {
		t.Errorf("SizeBytes = %d, want %d", sz, n)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Dim != ix.Dim || got.Tau != ix.Tau || len(got.Cells) != len(ix.Cells) {
		t.Fatalf("header mismatch: %d/%d/%d vs %d/%d/%d",
			got.Dim, got.Tau, len(got.Cells), ix.Dim, ix.Tau, len(ix.Cells))
	}
	for l := 1; l <= 3; l++ {
		if !reflect.DeepEqual(levelSignatures(got, l), levelSignatures(ix, l)) {
			t.Fatalf("level %d signatures differ after roundtrip", l)
		}
	}
	// Queries must agree.
	box := geom.NewBox([]float64{0.2, 0.2}, []float64{0.4, 0.4})
	a := ix.UTK(3, box)
	b := got.UTK(3, box)
	if !reflect.DeepEqual(a.Options, b.Options) {
		t.Errorf("UTK differs after roundtrip: %v vs %v", a.Options, b.Options)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not an index at all........"))); err == nil {
		t.Error("expected error for garbage input")
	}
	for _, blob := range [][]byte{[]byte("TLVLIDX9 foreign"), nil} {
		if _, err := ReadBytes(blob, true); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: err = %v, want ErrBadFormat", blob, err)
		}
	}
	var buf bytes.Buffer
	buf.Write(magicX3[:])
	buf.Write(make([]byte, 4)) // dim = 0
	if _, err := Read(&buf); err == nil {
		t.Error("expected error for truncated/invalid header")
	}
}

func TestVisitedCellsGrowWithDimension(t *testing.T) {
	// Table 5's driver: more dimensions => more cells per query (for kSPR,
	// the cells it reads from the option→cells column).
	rng := rand.New(rand.NewSource(1313))
	visited := make([]int, 0, 2)
	for _, d := range []int{2, 3} {
		data := randData(rng, 60, d)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 4})
		res := ix.KSPR(4, 0)
		visited = append(visited, res.Stats.VisitedCells)
	}
	if visited[1] <= visited[0] {
		t.Errorf("visited cells did not grow with d: %v", visited)
	}
}

// TestUTKPartitionsTileTheBox: the level-k cells intersected with the query
// box must tile it exactly (volumes sum to the clipped box volume).
func TestUTKPartitionsTileTheBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.Intn(25)
		d := 2 + rng.Intn(2)
		k := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: k})
		dim := d - 1
		c := randReduced(rng, dim)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for j := 0; j < dim; j++ {
			lo[j] = math.Max(0, c[j]-0.06)
			hi[j] = lo[j] + 0.06
		}
		box := geom.NewBox(lo, hi)
		boxVol := box.Region().Volume(0, nil)
		if boxVol <= 0 {
			continue
		}
		res := ix.UTK(k, box)
		total := 0.0
		for _, part := range res.Partitions {
			reg := ix.Region(part.Cell)
			reg.Add(box.Halfspaces()...)
			total += reg.Volume(0, nil)
		}
		if math.Abs(total-boxVol) > 1e-6*math.Max(1, boxVol) && math.Abs(total-boxVol) > 1e-9 {
			t.Fatalf("trial %d (d=%d k=%d): partitions sum to %v, box volume %v",
				trial, d, k, total, boxVol)
		}
	}
}

// TestLevelArrangementTilesSimplex: the cells of every level must tile the
// whole preference simplex by volume (Definition 3, checked exactly).
func TestLevelArrangementTilesSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(1515))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(25)
		d := 2 + rng.Intn(2)
		tau := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tau})
		want := geom.SimplexVolume(d - 1)
		for l := 1; l <= ix.Tau; l++ {
			total := 0.0
			for _, id := range ix.Levels[l] {
				total += ix.Region(id).Volume(0, nil)
			}
			if diff := total - want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("trial %d level %d: cells tile %v of %v", trial, l, total, want)
			}
		}
	}
}
