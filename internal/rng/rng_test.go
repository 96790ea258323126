package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the splitmix64 reference
	// implementation (Vigna).
	sm := NewSplitMix64(1234567)
	want := []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("SplitMix64(1234567) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a, b := NewXoshiro256(99), NewXoshiro256(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a, b := NewXoshiro256(1), NewXoshiro256(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(7)
	for i := 0; i < 10000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	x := NewXoshiro256(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += x.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	x := NewXoshiro256(13)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := x.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	x := NewXoshiro256(17)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[x.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn(%d): value %d drawn %d times, want ~%.0f", n, v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewXoshiro256(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	x := NewXoshiro256(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := x.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	x := NewXoshiro256(29)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	x.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed the multiset: sum %d -> %d", sum, got)
	}
}

func TestMix64Bijective(t *testing.T) {
	// Sampled injectivity check: distinct inputs map to distinct outputs.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestStreamIndependence(t *testing.T) {
	// Different stream indices from the same parent must yield different
	// seeds, and the same (seed, stream) pair must be reproducible.
	if Stream(5, 1) == Stream(5, 2) {
		t.Fatal("Stream(5,1) == Stream(5,2)")
	}
	if Stream(5, 1) != Stream(5, 1) {
		t.Fatal("Stream is not deterministic")
	}
	if Stream(5, 1) == Stream(6, 1) {
		t.Fatal("Stream ignores the parent seed")
	}
}

func TestEdgeCoinDeterministic(t *testing.T) {
	th := CoinThreshold(0.5)
	for i := 0; i < 100; i++ {
		a := EdgeCoin(1, uint64(i), 7, th)
		b := EdgeCoin(1, uint64(i), 7, th)
		if a != b {
			t.Fatalf("EdgeCoin not deterministic at world %d", i)
		}
	}
}

func TestEdgeCoinFrequency(t *testing.T) {
	for _, p := range []float64{0.1, 0.39, 0.5, 0.9, 0.99} {
		th := CoinThreshold(p)
		const n = 100000
		hits := 0
		for i := 0; i < n; i++ {
			if EdgeCoin(123, uint64(i), 42, th) {
				hits++
			}
		}
		got := float64(hits) / n
		sigma := math.Sqrt(p * (1 - p) / n)
		if math.Abs(got-p) > 6*sigma+1e-9 {
			t.Fatalf("EdgeCoin frequency for p=%v: got %v (|diff| > 6 sigma)", p, got)
		}
	}
}

func TestCoinThresholdExtremes(t *testing.T) {
	if CoinThreshold(1) != ^uint64(0) {
		t.Fatal("CoinThreshold(1) must be max uint64")
	}
	if CoinThreshold(0) != 0 {
		t.Fatal("CoinThreshold(0) must be 0")
	}
	// p=1 edges must always be present.
	th := CoinThreshold(1)
	for i := 0; i < 1000; i++ {
		if !EdgeCoin(9, uint64(i), 1, th) {
			t.Fatal("edge with p=1 absent from a world")
		}
	}
	// p=0 edges never present. (The library never stores p=0 edges, but the
	// coin must still behave.)
	th = CoinThreshold(0)
	for i := 0; i < 1000; i++ {
		if EdgeCoin(9, uint64(i), 1, th) {
			t.Fatal("edge with p=0 present in a world")
		}
	}
}

func TestEdgeCoinIndependentAcrossEdges(t *testing.T) {
	// Correlation between the coins of two edges should be ~0.
	th := CoinThreshold(0.5)
	const n = 100000
	var a, b, ab int
	for i := 0; i < n; i++ {
		ca := EdgeCoin(77, uint64(i), 1, th)
		cb := EdgeCoin(77, uint64(i), 2, th)
		if ca {
			a++
		}
		if cb {
			b++
		}
		if ca && cb {
			ab++
		}
	}
	pa, pb, pab := float64(a)/n, float64(b)/n, float64(ab)/n
	if math.Abs(pab-pa*pb) > 0.01 {
		t.Fatalf("edge coins correlated: P(a,b)=%v, P(a)P(b)=%v", pab, pa*pb)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	x := NewXoshiro256(101)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := x.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoinThresholdMonotone(t *testing.T) {
	// Larger probabilities must never get smaller thresholds.
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return CoinThreshold(pa) <= CoinThreshold(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = x.Uint64()
	}
	_ = sink
}

func BenchmarkEdgeCoin(b *testing.B) {
	th := CoinThreshold(0.4)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = EdgeCoin(1, uint64(i), uint64(i*7), th)
	}
	_ = sink
}
