package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/vec"
)

// encodeFrame returns one length-prefixed frame of the given kind carrying
// payload under request ID 1.
func encodeFrame(tb testing.TB, kind string, payload interface{}) []byte {
	tb.Helper()
	env, err := NewEnvelope(kind, "", 1, 0, payload)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteEnvelope(&buf, env); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := SearchReq{RepoID: "r1", Query: core.Query{K: 5}}
	env, err := NewEnvelope(KindSearch, "", 1, 0, req)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteEnvelope(&buf, env)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, rn, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rn != n {
		t.Errorf("read %d bytes, wrote %d", rn, n)
	}
	if got.Kind != KindSearch || got.ID != 1 {
		t.Errorf("kind = %s, id = %d", got.Kind, got.ID)
	}
	var dec SearchReq
	if err := got.Decode(&dec); err != nil {
		t.Fatal(err)
	}
	if dec.RepoID != "r1" || dec.Query.K != 5 {
		t.Errorf("decoded %+v", dec)
	}
}

func TestFrameCarriesEncodings(t *testing.T) {
	bv := vec.NewBitVec(130)
	bv.Set(0, true)
	bv.Set(129, true)
	tok := dpe.Token{1, 2, 3}
	up := UpdateReq{
		RepoID: "r",
		Update: core.Update{
			ObjectID:       "o1",
			TextTokens:     map[dpe.Token]uint64{tok: 7},
			ImageEncodings: []vec.BitVec{bv},
		},
	}
	env, _, err := ReadFrame(bytes.NewReader(encodeFrame(t, KindUpdate, up)))
	if err != nil {
		t.Fatal(err)
	}
	var got UpdateReq
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Update.TextTokens[tok] != 7 {
		t.Error("token map lost in transit")
	}
	if len(got.Update.ImageEncodings) != 1 || !got.Update.ImageEncodings[0].Equal(bv) {
		t.Error("bit vector lost in transit")
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
	// Partial header also surfaces as EOF (clean-shutdown semantics).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); !errors.Is(err, io.EOF) {
		t.Errorf("partial header err = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	frame := encodeFrame(t, KindAck, Ack{})
	trunc := frame[:len(frame)-3]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("expected error for truncated body")
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameGarbageBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 8)
	buf.Write(hdr[:])
	buf.Write([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Error("expected decode error for garbage body")
	}
}

func TestRepoOptionsToCore(t *testing.T) {
	opts := RepoOptions{VocabWords: 500, VocabMaxIter: 7, TreeBranch: 4, TreeHeight: 2, TreeSeed: 9, TrainingSampleCap: 100, FusionCandidates: 30}
	c := opts.ToCore()
	if c.Vocab.Words != 500 || c.Vocab.MaxIter != 7 || c.Vocab.Seed != 9 {
		t.Errorf("vocab params lost: %+v", c.Vocab)
	}
	if c.Vocab.Tree.Branch != 4 || c.Vocab.Tree.Height != 2 || c.Vocab.Tree.Seed != 9 {
		t.Errorf("tree params lost: %+v", c.Vocab.Tree)
	}
	if c.TrainingSampleCap != 100 || c.FusionCandidates != 30 {
		t.Errorf("caps lost: %+v", c)
	}
}

func TestDecodeWrongType(t *testing.T) {
	env, _, err := ReadFrame(bytes.NewReader(encodeFrame(t, KindAck, Ack{Err: "x"})))
	if err != nil {
		t.Fatal(err)
	}
	// Decoding into the wrong payload type errors rather than panics, on
	// the binary path (the Ack bytes end before SearchResp's hit count) and
	// on the gob path alike.
	var wrong SearchResp
	if err := env.Decode(&wrong); !errors.Is(err, ErrMalformed) {
		t.Errorf("Ack frame into SearchResp: err = %v, want ErrMalformed", err)
	}
	var n int
	if err := env.Decode(&n); err == nil {
		t.Error("expected error decoding struct into int")
	}
}
