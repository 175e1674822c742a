package dpe

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mie/internal/crypto"
	"mie/internal/vec"
)

func testKey(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// randomPair returns two unit-norm-bounded vectors at exactly Euclidean
// distance d from each other (d <= 1).
func randomPair(rng *rand.Rand, dim int, d float64) (p1, p2 []float64) {
	p1 = make([]float64, dim)
	dir := make([]float64, dim)
	for i := range p1 {
		p1[i] = rng.NormFloat64()
		dir[i] = rng.NormFloat64()
	}
	vec.Normalize(p1)
	vec.Scale(p1, 0.5) // keep points in a ball so distances stay <= 1
	vec.Normalize(dir)
	p2 = vec.Clone(p1)
	for i := range p2 {
		p2[i] += dir[i] * d
	}
	return p1, p2
}

func newTestDense(t *testing.T, threshold float64) *Dense {
	t.Helper()
	d, err := NewDense(testKey(1), DenseParams{InDim: 64, OutDim: 2048, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDenseValidation(t *testing.T) {
	tests := []struct {
		name   string
		params DenseParams
	}{
		{name: "zero in dim", params: DenseParams{InDim: 0, Threshold: 0.5}},
		{name: "negative out dim", params: DenseParams{InDim: 4, OutDim: -1, Threshold: 0.5}},
		{name: "zero threshold", params: DenseParams{InDim: 4, Threshold: 0}},
		{name: "threshold above one", params: DenseParams{InDim: 4, Threshold: 1.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewDense(testKey(1), tt.params); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestNewDenseDefaultOutDim(t *testing.T) {
	d, err := NewDense(testKey(1), DenseParams{InDim: 64, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if d.OutDim() != 512 {
		t.Errorf("default OutDim = %d, want 512", d.OutDim())
	}
}

func TestDenseEncodeDeterministic(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(1))
	p, _ := randomPair(rng, 64, 0)
	e1, err := d.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Equal(e2) {
		t.Error("same plaintext encoded to different encodings")
	}
}

func TestDenseEncodeKeyDependence(t *testing.T) {
	p := make([]float64, 64)
	for i := range p {
		p[i] = float64(i) / 128
	}
	d1, err := NewDense(testKey(1), DenseParams{InDim: 64, OutDim: 512, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense(testKey(2), DenseParams{InDim: 64, OutDim: 512, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := d1.Encode(p)
	e2, _ := d2.Encode(p)
	// Under different keys the encodings should look unrelated (~half bits differ).
	nh := vec.NormHamming(e1, e2)
	if nh < 0.35 || nh > 0.65 {
		t.Errorf("cross-key NormHamming = %v, want ~0.5", nh)
	}
}

func TestDenseEncodeDimensionCheck(t *testing.T) {
	d := newTestDense(t, 0.5)
	if _, err := d.Encode(make([]float64, 63)); !errors.Is(err, ErrBadDimension) {
		t.Errorf("err = %v, want ErrBadDimension", err)
	}
}

func TestDenseDistanceEncodingCheck(t *testing.T) {
	d := newTestDense(t, 0.5)
	if _, err := d.Distance(vec.NewBitVec(10), vec.NewBitVec(2048)); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("err = %v, want ErrBadEncoding", err)
	}
	if _, err := d.RawNormHamming(vec.NewBitVec(10), vec.NewBitVec(2048)); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("raw err = %v, want ErrBadEncoding", err)
	}
}

// TestDensePreservesSubThresholdDistances is the core Definition-1 property:
// for dp < t, DISTANCE(e1,e2) ~ dp.
func TestDensePreservesSubThresholdDistances(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(42))
	for _, dp := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
		var sum float64
		const trials = 20
		for i := 0; i < trials; i++ {
			p1, p2 := randomPair(rng, 64, dp)
			e1, err := d.Encode(p1)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := d.Encode(p2)
			if err != nil {
				t.Fatal(err)
			}
			de, err := d.Distance(e1, e2)
			if err != nil {
				t.Fatal(err)
			}
			sum += de
		}
		mean := sum / trials
		if math.Abs(mean-dp) > 0.05+0.15*dp {
			t.Errorf("dp=%v: mean encoded distance %v, want ~%v", dp, mean, dp)
		}
	}
}

// TestDenseSaturatesAboveThreshold: for dp >= t the encoded distance pins
// near t and conveys no ordering information about the true distance.
func TestDenseSaturatesAboveThreshold(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(43))
	means := make(map[float64]float64)
	for _, dp := range []float64{0.7, 0.85, 1.0} {
		var sum float64
		const trials = 20
		for i := 0; i < trials; i++ {
			p1, p2 := randomPair(rng, 64, dp)
			e1, _ := d.Encode(p1)
			e2, _ := d.Encode(p2)
			de, err := d.Distance(e1, e2)
			if err != nil {
				t.Fatal(err)
			}
			sum += de
		}
		means[dp] = sum / trials
	}
	for dp, m := range means {
		if m < 0.40 || m > 0.62 {
			t.Errorf("dp=%v: saturated distance %v, want near t=0.5", dp, m)
		}
	}
	// Saturated values should be close to each other (no ordering leak).
	if math.Abs(means[0.7]-means[1.0]) > 0.06 {
		t.Errorf("saturation not flat: de(0.7)=%v de(1.0)=%v", means[0.7], means[1.0])
	}
}

func TestDenseZeroDistance(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(44))
	p, _ := randomPair(rng, 64, 0)
	e, _ := d.Encode(p)
	de, err := d.Distance(e, e)
	if err != nil {
		t.Fatal(err)
	}
	if de != 0 {
		t.Errorf("self distance = %v, want 0", de)
	}
}

// TestDenseMonotoneBelowThreshold: encoded distances must preserve ordering
// of plaintext distances in the sub-threshold regime.
func TestDenseMonotoneBelowThreshold(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(45))
	prev := -1.0
	for _, dp := range []float64{0.05, 0.15, 0.25, 0.35, 0.45} {
		var sum float64
		const trials = 30
		for i := 0; i < trials; i++ {
			p1, p2 := randomPair(rng, 64, dp)
			e1, _ := d.Encode(p1)
			e2, _ := d.Encode(p2)
			de, _ := d.Distance(e1, e2)
			sum += de
		}
		mean := sum / trials
		if mean <= prev {
			t.Errorf("dp=%v: mean %v not greater than previous %v", dp, mean, prev)
		}
		prev = mean
	}
}

// TestDenseThresholdScaling checks the Definition-1 contract for a
// non-default threshold: distances below t track dp, above t pin near t.
func TestDenseThresholdScaling(t *testing.T) {
	d, err := NewDense(testKey(3), DenseParams{InDim: 32, OutDim: 2048, Threshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	sub := 0.15
	var sum float64
	const trials = 30
	for i := 0; i < trials; i++ {
		p1, p2 := randomPair(rng, 32, sub)
		e1, _ := d.Encode(p1)
		e2, _ := d.Encode(p2)
		de, _ := d.Distance(e1, e2)
		sum += de
	}
	if mean := sum / trials; math.Abs(mean-sub) > 0.06 {
		t.Errorf("t=0.25 dp=%v: mean %v", sub, mean)
	}
	sum = 0
	for i := 0; i < trials; i++ {
		p1, p2 := randomPair(rng, 32, 0.8)
		e1, _ := d.Encode(p1)
		e2, _ := d.Encode(p2)
		de, _ := d.Distance(e1, e2)
		sum += de
	}
	if mean := sum / trials; math.Abs(mean-0.25) > 0.06 {
		t.Errorf("t=0.25 dp=0.8: saturated mean %v, want ~0.25", mean)
	}
}

func TestSparseEncodeEquality(t *testing.T) {
	s := NewSparse(testKey(5))
	if s.Encode("cloud") != s.Encode("cloud") {
		t.Error("same keyword produced different tokens")
	}
	if s.Encode("cloud") == s.Encode("clouds") {
		t.Error("distinct keywords produced the same token")
	}
}

func TestSparseDistance(t *testing.T) {
	s := NewSparse(testKey(5))
	a, b := s.Encode("alpha"), s.Encode("alphb")
	if got := s.Distance(a, a); got != 0 {
		t.Errorf("Distance(a,a) = %v, want 0", got)
	}
	if got := s.Distance(a, b); got != 1 {
		t.Errorf("Distance(a,b) = %v, want 1 (one character apart must look maximal)", got)
	}
	if s.Threshold() != 0 {
		t.Errorf("Threshold = %v, want 0", s.Threshold())
	}
}

func TestSparseKeySeparation(t *testing.T) {
	s1, s2 := NewSparse(testKey(6)), NewSparse(testKey(7))
	if s1.Encode("word") == s2.Encode("word") {
		t.Error("tokens under different keys collide")
	}
}

func TestSparseInjectiveProperty(t *testing.T) {
	s := NewSparse(testKey(8))
	f := func(a, b string) bool {
		if a == b {
			return s.Distance(s.Encode(a), s.Encode(b)) == 0
		}
		return s.Distance(s.Encode(a), s.Encode(b)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenString(t *testing.T) {
	var tok Token
	tok[0] = 0xAB
	tok[31] = 0x01
	str := tok.String()
	if len(str) != 64 {
		t.Fatalf("token string length %d, want 64", len(str))
	}
	if str[:2] != "ab" || str[62:] != "01" {
		t.Errorf("token hex wrong: %s", str)
	}
}

func TestDenseEncodeDeterministicProperty(t *testing.T) {
	d := newTestDense(t, 0.5)
	f := func(raw [64]int8) bool {
		p := make([]float64, 64)
		for i, v := range raw {
			p[i] = float64(v) / 512 // stay in the unit-diameter domain
		}
		e1, err := d.Encode(p)
		if err != nil {
			return false
		}
		e2, err := d.Encode(p)
		if err != nil {
			return false
		}
		return e1.Equal(e2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDenseDistanceSymmetricProperty(t *testing.T) {
	d := newTestDense(t, 0.5)
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		p1, p2 := randomPair(rng, 64, rng.Float64())
		e1, err := d.Encode(p1)
		if err != nil {
			return false
		}
		e2, err := d.Encode(p2)
		if err != nil {
			return false
		}
		d12, err1 := d.Distance(e1, e2)
		d21, err2 := d.Distance(e2, e1)
		self, err3 := d.Distance(e1, e1)
		return err1 == nil && err2 == nil && err3 == nil && d12 == d21 && self == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// refDense is the reference oracle for the encoding kernel: Dense-DPE KEYGEN
// and ENCODE as first written, with A kept row-major and one dependent
// dot-product chain per output bit. The kernel must match it bit for bit.
type refDense struct {
	inDim, outDim int
	delta         float64
	a, w          []float64
}

func newRefDense(key crypto.Key, inDim, outDim int, threshold float64) *refDense {
	d := &refDense{
		inDim:  inDim,
		outDim: outDim,
		delta:  slopeConst * (threshold / 0.5),
		a:      make([]float64, outDim*inDim),
		w:      make([]float64, outDim),
	}
	g := crypto.NewPRG(key, fmt.Sprintf("dense-dpe:%d:%d", inDim, outDim))
	for i := range d.a {
		d.a[i] = g.NormFloat64()
	}
	for i := range d.w {
		d.w[i] = g.Float64() * d.delta
	}
	return d
}

func (d *refDense) encode(p []float64) vec.BitVec {
	e := vec.NewBitVec(d.outDim)
	invDelta := 1 / d.delta
	for i := 0; i < d.outDim; i++ {
		row := d.a[i*d.inDim : (i+1)*d.inDim]
		var dot float64
		for j, x := range p {
			dot += row[j] * x
		}
		q := int64(math.Floor((dot + d.w[i]) * invDelta))
		if q&1 == 0 {
			e.Set(i, true)
		}
	}
	return e
}

// TestDenseKernelMatchesReference checks Encode and EncodeBatch against the
// row-at-a-time oracle over random plaintexts, for dimensions that fill
// whole panels and words and for ones that leave leftover rows and a partial
// last word (the 32-dim audio descriptors among them), and for batch sizes
// around the panel width.
func TestDenseKernelMatchesReference(t *testing.T) {
	dims := []struct{ in, out int }{
		{64, 512},  // image descriptors, default OutDim
		{32, 256},  // audio descriptors, default OutDim
		{32, 100},  // leftover rows, partial last word
		{7, 13},    // fewer rows than two panels
		{5, 3},     // no full panel at all
		{65, 2049}, // long rows, one bit past a word
	}
	rng := rand.New(rand.NewSource(12))
	for _, dim := range dims {
		t.Run(fmt.Sprintf("%dx%d", dim.in, dim.out), func(t *testing.T) {
			key := testKey(byte(dim.in))
			d, err := NewDense(key, DenseParams{InDim: dim.in, OutDim: dim.out, Threshold: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefDense(key, dim.in, dim.out, 0.5)
			for _, n := range []int{0, 1, 7, 8, 29} {
				ps := make([][]float64, n)
				for i := range ps {
					ps[i] = make([]float64, dim.in)
					for j := range ps[i] {
						ps[i][j] = rng.NormFloat64() * 0.3
					}
				}
				batch, err := d.EncodeBatch(ps)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != n {
					t.Fatalf("batch of %d: got %d encodings", n, len(batch))
				}
				for i, p := range ps {
					want := ref.encode(p)
					one, err := d.Encode(p)
					if err != nil {
						t.Fatal(err)
					}
					if !one.Equal(want) {
						t.Fatalf("batch of %d: Encode(ps[%d]) differs from the reference", n, i)
					}
					if !batch[i].Equal(want) {
						t.Fatalf("batch of %d: EncodeBatch[%d] differs from the reference", n, i)
					}
				}
			}
		})
	}
}

func TestDenseEncodeBatchDimensionCheck(t *testing.T) {
	d := newTestDense(t, 0.5)
	ps := [][]float64{make([]float64, 64), make([]float64, 63)}
	if _, err := d.EncodeBatch(ps); !errors.Is(err, ErrBadDimension) {
		t.Errorf("err = %v, want ErrBadDimension", err)
	}
}

// TestDenseEncodeBatchConcurrent runs EncodeBatch from several goroutines on
// one shared Dense (run it with -race): every call must see only read-only
// key material and return the sequential answer.
func TestDenseEncodeBatchConcurrent(t *testing.T) {
	d, err := NewDense(testKey(3), DenseParams{InDim: 64, OutDim: 512, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ps := make([][]float64, 29)
	for i := range ps {
		ps[i], _ = randomPair(rng, 64, 0)
	}
	want, err := d.EncodeBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got, err := d.EncodeBatch(ps)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Errorf("concurrent EncodeBatch[%d] differs", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
