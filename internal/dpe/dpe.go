// Package dpe implements Distance Preserving Encodings (DPE), the
// cryptographic core of MIE (paper §IV).
//
// A DPE scheme is a triple (KEYGEN, ENCODE, DISTANCE) such that the distance
// between two encodings equals the distance between the underlying
// plaintexts whenever that plaintext distance is below a threshold t chosen
// at key-generation time; for larger plaintext distances the encoded
// distance conveys nothing beyond "at least t". The threshold is the
// security dial: it upper-bounds what an honest-but-curious server can learn
// about relations between encoded feature vectors, while still allowing the
// server to run clustering and indexing on the encodings.
//
// Two implementations are provided, mirroring the paper:
//
//   - Dense (Algorithm 2): for dense high-dimensional media features
//     (images, audio, video). Universal scalar quantization
//     e(x) = Q(Δ⁻¹(A·x + w)) with Gaussian A and uniform dither w expanded
//     from a short key by a PRG. Euclidean distance between plaintexts is
//     preserved as normalized Hamming distance between bit-vector encodings
//     up to t, then saturates.
//
//   - Sparse (Algorithm 3): for sparse media (text keywords). A PRF with
//     threshold t = 0: encodings reveal equality and nothing else.
package dpe

import (
	"errors"
	"fmt"
	"math"

	"mie/internal/crypto"
	"mie/internal/vec"
)

// Common errors.
var (
	// ErrBadDimension is returned when a plaintext vector does not match the
	// scheme's configured input dimension.
	ErrBadDimension = errors.New("dpe: plaintext dimension mismatch")
	// ErrBadEncoding is returned when encodings of incompatible sizes are
	// compared.
	ErrBadEncoding = errors.New("dpe: encoding size mismatch")
)

// slopeConst is sqrt(2/pi): for Gaussian projections the expected bit-flip
// probability for plaintext distance d is ~ d*sqrt(2/pi)/Δ in the linear
// (sub-threshold) regime. Choosing Δ = slopeConst*(t/0.5) makes the raw
// normalized Hamming distance reach its ~0.5 saturation right around dp = t,
// so that after rescaling by 2t the encoded distance tracks dp below t and
// pins near t above it — exactly the contract of Definition 1.
var slopeConst = math.Sqrt(2 / math.Pi)

// Dense is the DPE implementation for dense media feature vectors.
// It is safe for concurrent use after construction.
type Dense struct {
	inDim  int
	outDim int
	t      float64
	delta  float64
	// a is the outDim x inDim projection matrix A in panel order: the first
	// outDim/8*8 rows as 8-row panels interleaved by column,
	// a[r*8*inDim + j*8 + k] = A[8r+k][j], then the outDim%8 leftover rows
	// row-major. A panel feeds its eight dot products from one contiguous
	// stream (see encodeInto).
	a []float64
	w []float64 // outDim dither values in [0, delta)
}

// panelRows is the height of a panel of A: the rows one panel interleaves,
// and the bits of the encoding it fills (one byte of a word). The kernel's
// offsets assume 8.
const panelRows = 8

// DenseParams configures Dense-DPE key generation.
type DenseParams struct {
	// InDim is the plaintext feature-vector dimensionality (N). SURF-like
	// descriptors use 64.
	InDim int
	// OutDim is the encoding length in bits (M). Larger M reduces the noise
	// of the preserved distance at the cost of encoding size. The paper's
	// prototype uses OutDim == InDim scaled to bits; we default to
	// 8*InDim bits when zero, which keeps the byte size of the encoding
	// equal to a float32 vector of the same dimension.
	OutDim int
	// Threshold is t in (0, 1]: plaintext Euclidean distances below it are
	// preserved, larger ones are hidden. The paper's prototype uses 0.5.
	Threshold float64
}

// NewDense runs Dense-DPE KEYGEN: it expands key into the projection matrix
// A and dither w with a PRG and fixes the distance threshold. Plaintext
// vectors given to Encode must have distances bounded by 1 (normalize
// features accordingly).
func NewDense(key crypto.Key, params DenseParams) (*Dense, error) {
	if params.InDim <= 0 {
		return nil, fmt.Errorf("dpe: InDim must be positive, got %d", params.InDim)
	}
	if params.OutDim == 0 {
		params.OutDim = 8 * params.InDim
	}
	if params.OutDim <= 0 {
		return nil, fmt.Errorf("dpe: OutDim must be positive, got %d", params.OutDim)
	}
	if params.Threshold <= 0 || params.Threshold > 1 {
		return nil, fmt.Errorf("dpe: Threshold must be in (0,1], got %v", params.Threshold)
	}
	d := &Dense{
		inDim:  params.InDim,
		outDim: params.OutDim,
		t:      params.Threshold,
		delta:  slopeConst * (params.Threshold / 0.5),
		a:      make([]float64, params.OutDim*params.InDim),
		w:      make([]float64, params.OutDim),
	}
	g := crypto.NewPRG(key, fmt.Sprintf("dense-dpe:%d:%d", params.InDim, params.OutDim))
	// The PRG yields A row-major; each entry lands at its panel position.
	n, panelled := params.InDim, params.OutDim/panelRows*panelRows
	for i := 0; i < params.OutDim; i++ {
		for j := 0; j < n; j++ {
			at := i*n + j
			if i < panelled {
				at = i/panelRows*panelRows*n + j*panelRows + i%panelRows
			}
			d.a[at] = g.NormFloat64()
		}
	}
	for i := range d.w {
		d.w[i] = g.Float64() * d.delta
	}
	return d, nil
}

// InDim returns the configured plaintext dimensionality.
func (d *Dense) InDim() int { return d.inDim }

// OutDim returns the encoding length in bits.
func (d *Dense) OutDim() int { return d.outDim }

// Threshold returns t: the largest plaintext distance the encodings preserve.
func (d *Dense) Threshold() float64 { return d.t }

// Encode runs Dense-DPE ENCODE on plaintext feature vector p, producing a
// bit-vector encoding. Deterministic: equal plaintexts yield equal encodings
// under the same key, which is what leaks (only) the patterns specified by
// the ideal functionality F_DPE.
func (d *Dense) Encode(p []float64) (vec.BitVec, error) {
	es, err := d.EncodeBatch([][]float64{p})
	if err != nil {
		return vec.BitVec{}, err
	}
	return es[0], nil
}

// EncodeBatch runs ENCODE on every plaintext of ps, in order — one call per
// object's descriptors. The encodings share one contiguous word arena, and
// each equals what Encode returns for the same plaintext, bit for bit.
// Safe for concurrent use: calls share only the read-only key material.
func (d *Dense) EncodeBatch(ps [][]float64) ([]vec.BitVec, error) {
	for i, p := range ps {
		if len(p) != d.inDim {
			return nil, fmt.Errorf("%w: plaintext %d has %d, want %d", ErrBadDimension, i, len(p), d.inDim)
		}
	}
	stride := (d.outDim + 63) / 64
	arena := make([]uint64, len(ps)*stride)
	d.encodeInto(arena, stride, ps)
	return vec.BitVecsFromArena(arena, len(ps), d.outDim)
}

// encodeInto writes the encoding of ps[i] to arena[i*stride:]. Panels run in
// the outer loop so each 8-row panel of A (8·inDim floats) stays in cache
// across the batch. A panel is scored in two halves of 4 rows, two columns
// per step: 4 accumulators, 2 plaintext values and 8 products fit the 15
// float registers Go's amd64 ABI leaves free (X15 is kept zero), where all
// 8 rows at once spill two accumulators to the stack on every column
// (15–20% slower). Each accumulator sums its row over j in ascending order
// exactly as a one-row-at-a-time dot product would, so the float results
// and the encodings do not depend on the blocking.
func (d *Dense) encodeInto(arena []uint64, stride int, ps [][]float64) {
	n := d.inDim
	invDelta := 1 / d.delta
	panels := d.outDim / panelRows
	for r := 0; r < panels; r++ {
		panel := d.a[r*panelRows*n : (r+1)*panelRows*n]
		w := d.w[r*panelRows : (r+1)*panelRows]
		word, shift := r*panelRows/64, uint(r*panelRows%64)
		for i, p := range ps {
			var bits uint64
			for h := 0; h < panelRows; h += 4 {
				var s0, s1, s2, s3 float64
				j := 0
				for ; j+1 < len(p); j += 2 {
					// c[0:4] is rows h..h+3 at column j, c[8:12] the
					// same rows at column j+1.
					x0, x1 := p[j], p[j+1]
					at := j*panelRows + h
					c := panel[at : at+12 : at+12]
					s0 += c[0] * x0
					s1 += c[1] * x0
					s2 += c[2] * x0
					s3 += c[3] * x0
					s0 += c[8] * x1
					s1 += c[9] * x1
					s2 += c[10] * x1
					s3 += c[11] * x1
				}
				if j < len(p) {
					x := p[j]
					at := j*panelRows + h
					c := panel[at : at+4 : at+4]
					s0 += c[0] * x
					s1 += c[1] * x
					s2 += c[2] * x
					s3 += c[3] * x
				}
				bits |= (quantBit(s0, w[h], invDelta) |
					quantBit(s1, w[h+1], invDelta)<<1 |
					quantBit(s2, w[h+2], invDelta)<<2 |
					quantBit(s3, w[h+3], invDelta)<<3) << uint(h)
			}
			arena[i*stride+word] |= bits << shift
		}
	}
	for row := panels * panelRows; row < d.outDim; row++ {
		a := d.a[row*n : (row+1)*n]
		for i, p := range ps {
			var dot float64
			for j, x := range p {
				dot += a[j] * x
			}
			arena[i*stride+row/64] |= quantBit(dot, d.w[row], invDelta) << uint(row%64)
		}
	}
}

// quantBit is the universal quantizer Q(Δ⁻¹(dot + w)): it maps
// [2v, 2v+1) -> 1 and [2v+1, 2v+2) -> 0, i.e. an even floor encodes 1.
func quantBit(dot, w, invDelta float64) uint64 {
	return ^uint64(int64(math.Floor((dot+w)*invDelta))) & 1
}

// Distance runs Dense-DPE DISTANCE on two encodings. It returns a value that
// approximates the plaintext Euclidean distance when that distance is below
// the threshold, and a value pinned near the threshold otherwise.
func (d *Dense) Distance(e1, e2 vec.BitVec) (float64, error) {
	if e1.Len() != d.outDim || e2.Len() != d.outDim {
		return 0, fmt.Errorf("%w: got %d and %d, want %d", ErrBadEncoding, e1.Len(), e2.Len(), d.outDim)
	}
	return vec.NormHamming(e1, e2) * 2 * d.t, nil
}

// RawNormHamming exposes the unscaled normalized Hamming distance between
// encodings; this is the quantity server-side Hamming k-means clusters on.
func (d *Dense) RawNormHamming(e1, e2 vec.BitVec) (float64, error) {
	if e1.Len() != d.outDim || e2.Len() != d.outDim {
		return 0, fmt.Errorf("%w: got %d and %d, want %d", ErrBadEncoding, e1.Len(), e2.Len(), d.outDim)
	}
	return vec.NormHamming(e1, e2), nil
}

// Token is a Sparse-DPE encoding of a single keyword: a PRF output. Tokens
// from the same key are equal iff the keywords are equal; nothing else about
// the keywords is revealed.
type Token [32]byte

// String renders the token as lowercase hex, handy as a map key and for the
// wire protocol.
func (t Token) String() string {
	const hexdigits = "0123456789abcdef"
	buf := make([]byte, 64)
	for i, b := range t {
		buf[2*i] = hexdigits[b>>4]
		buf[2*i+1] = hexdigits[b&0xf]
	}
	return string(buf)
}

// Sparse is the DPE implementation for sparse media (text). Its threshold is
// zero: DISTANCE reveals only equality. It is safe for concurrent use.
type Sparse struct {
	key crypto.Key
}

// NewSparse runs Sparse-DPE KEYGEN.
func NewSparse(key crypto.Key) *Sparse {
	return &Sparse{key: crypto.DeriveKey(key, "sparse-dpe")}
}

// Threshold returns 0: only equality is preserved.
func (s *Sparse) Threshold() float64 { return 0 }

// Encode runs Sparse-DPE ENCODE on a keyword: f(x) = P_K(x).
func (s *Sparse) Encode(keyword string) Token {
	var t Token
	copy(t[:], crypto.PRFString(s.key, keyword))
	return t
}

// Distance runs Sparse-DPE DISTANCE: 0 if the tokens match, 1 otherwise.
// Per Algorithm 3, distances above the threshold take a constant value (1),
// so even keywords one character apart look maximally distant.
func (s *Sparse) Distance(t1, t2 Token) float64 {
	if t1 == t2 {
		return 0
	}
	return 1
}
