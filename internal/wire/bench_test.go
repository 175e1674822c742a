package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mie/internal/core"
	"mie/internal/vec"
)

// benchQuery is the image query of the layer ledger's search frame: 50
// Dense-DPE codes of 512 bits and k = 10.
func benchQuery() SearchReq {
	rng := rand.New(rand.NewSource(1))
	codes := make([]vec.BitVec, 50)
	for i := range codes {
		codes[i] = vec.NewBitVec(512)
		for b := 0; b < 512; b++ {
			codes[i].Set(b, rng.Intn(2) == 1)
		}
	}
	return SearchReq{RepoID: "bench-repo", Query: core.Query{ImageEncodings: codes, K: 10}}
}

// benchResp is a k = 10 result frame: ten hits carrying 2 KiB ciphertexts.
func benchResp() SearchResp {
	hits := make([]core.SearchHit, 10)
	for i := range hits {
		ct := make([]byte, 2048)
		for j := range ct {
			ct[j] = byte(i + j)
		}
		hits[i] = core.SearchHit{ObjectID: fmt.Sprintf("object-%04d", i), Owner: "owner", Score: 1 / float64(i+1), Ciphertext: ct}
	}
	return SearchResp{Hits: hits}
}

// benchRoundTrip encodes payload as one frame, reads it back and decodes
// the payload into into: the codec work of one hop.
func benchRoundTrip(b *testing.B, kind string, payload, into interface{}) {
	b.ReportAllocs()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		env, err := NewEnvelope(kind, "token", uint64(i+1), 0, payload)
		if err != nil {
			b.Fatal(err)
		}
		n, err := WriteEnvelope(&buf, env)
		if err != nil {
			b.Fatal(err)
		}
		got, _, err := ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := got.Decode(into); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n))
	}
}

func BenchmarkWireSearchFrame(b *testing.B) {
	var out SearchReq
	benchRoundTrip(b, KindSearch, benchQuery(), &out)
}

func BenchmarkWireSearchResp(b *testing.B) {
	var out SearchResp
	benchRoundTrip(b, KindSearchResp, benchResp(), &out)
}
