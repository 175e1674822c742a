package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/vec"
)

// codeOf returns an n-bit code with every third bit set, starting at off.
func codeOf(n, off int) vec.BitVec {
	c := vec.NewBitVec(n)
	for i := off % 3; i < n; i += 3 {
		c.Set(i, true)
	}
	return c
}

// roundTrip sends payload through NewEnvelope, WriteEnvelope, ReadFrame and
// Decode into a fresh value of out's type, and returns it.
func roundTrip(t *testing.T, kind string, payload, out interface{}) interface{} {
	t.Helper()
	env, _, err := ReadFrame(bytes.NewReader(encodeFrame(t, kind, payload)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := reflect.New(reflect.TypeOf(out).Elem()).Interface()
	if err := env.Decode(fresh); err != nil {
		t.Fatal(err)
	}
	return reflect.ValueOf(fresh).Elem().Interface()
}

func TestPayloadRoundTrip(t *testing.T) {
	tok := func(b byte) dpe.Token { return dpe.Token{b, 0xee} }
	// Empty maps, slices and byte strings decode as nil, as they did under
	// gob; everything else comes back equal.
	cases := []struct {
		name      string
		kind      string
		in, want  interface{}
		decodeOut interface{}
	}{
		{"search/nil", KindSearch, SearchReq{RepoID: "r", Query: core.Query{K: 3}}, SearchReq{RepoID: "r", Query: core.Query{K: 3}}, &SearchReq{}},
		{"search/empty", KindSearch,
			SearchReq{Query: core.Query{TextTokens: map[dpe.Token]uint64{}, ImageEncodings: []vec.BitVec{}, AudioEncodings: []vec.BitVec{}, K: -1}},
			SearchReq{Query: core.Query{K: -1}}, &SearchReq{}},
		{"search/full", KindSearch,
			SearchReq{RepoID: "r", Query: core.Query{
				TextTokens:     map[dpe.Token]uint64{tok(9): 1, tok(1): 1 << 40, tok(5): 0},
				ImageEncodings: []vec.BitVec{codeOf(512, 0), codeOf(512, 1)},
				AudioEncodings: []vec.BitVec{codeOf(100, 2)},
				K:              10,
			}},
			nil, &SearchReq{}},
		{"update/empty", KindUpdate,
			UpdateReq{RepoID: "r", Update: core.Update{ObjectID: "o", Ciphertext: []byte{}, TextTokens: map[dpe.Token]uint64{}}},
			UpdateReq{RepoID: "r", Update: core.Update{ObjectID: "o"}}, &UpdateReq{}},
		{"update/full", KindUpdate,
			UpdateReq{RepoID: "r", Update: core.Update{
				ObjectID: "o1", Owner: "alice", Ciphertext: []byte("sealed"),
				TextTokens:     map[dpe.Token]uint64{tok(3): 2},
				ImageEncodings: []vec.BitVec{codeOf(64, 0)},
				AudioEncodings: []vec.BitVec{codeOf(1, 0), codeOf(1, 1)},
			}},
			nil, &UpdateReq{}},
		{"get", KindGet, GetReq{RepoID: "r", ObjectID: "o"}, nil, &GetReq{}},
		{"get-resp", KindGetResp, GetResp{Ciphertext: []byte{1, 2}, Owner: "bob"}, nil, &GetResp{}},
		{"get-resp/empty", KindGetResp, GetResp{Ciphertext: []byte{}}, GetResp{}, &GetResp{}},
		{"search-resp/zero-hits", KindSearchResp, SearchResp{Hits: []core.SearchHit{}}, SearchResp{}, &SearchResp{}},
		{"search-resp/hits", KindSearchResp,
			SearchResp{Hits: []core.SearchHit{
				{ObjectID: "a", Owner: "o", Score: 0.75, Ciphertext: []byte("x")},
				{ObjectID: "b", Score: -2.5},
				{ObjectID: "c", Owner: "p", Score: 1e-300, Ciphertext: []byte("yz")},
			}},
			nil, &SearchResp{}},
		{"ack/ok", KindAck, Ack{}, nil, &Ack{}},
		{"ack/error-only", KindError, Ack{Err: "over quota", Code: ErrCodeOverQuota, RetryAfterNanos: int64(250 * time.Millisecond)}, nil, &Ack{}},
		{"search-resp/error-only", KindSearchResp, SearchResp{Err: "no such repo", Code: ErrCodeRepoNotFound, RetryAfterNanos: -1}, nil, &SearchResp{}},
		{"get-resp/error-only", KindGetResp, GetResp{Err: "unknown object", Code: ErrCodeUnknownObject}, nil, &GetResp{}},
		{"repl-records", KindReplRecords,
			ReplRecords{RepoID: "r", Records: []ReplRecord{
				NewReplRecord(3, 1, ReplMutation, -7, []byte("wal record")),
				NewReplRecord(3, 2, ReplSnapshot, 1<<62, nil),
			}},
			nil, &ReplRecords{}},
		{"repl-records/error-only", KindReplRecords, ReplRecords{Err: "gone", Code: ErrCodeRepoNotFound, RepoID: "x", Records: []ReplRecord{}},
			ReplRecords{Err: "gone", Code: ErrCodeRepoNotFound, RepoID: "x"}, &ReplRecords{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := c.want
			if want == nil {
				want = c.in
			}
			if got := roundTrip(t, c.kind, c.in, c.decodeOut); !reflect.DeepEqual(got, want) {
				t.Errorf("round trip:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

func TestCodeLengthsRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 100, 511, 512, 1000} {
		// Words with every bit set: the constructor masks the bits past n,
		// and those must stay zero on the wire.
		words := make([]uint64, (n+63)/64)
		for i := range words {
			words[i] = ^uint64(0)
		}
		full, err := vec.BitVecFromWords(words, n)
		if err != nil {
			t.Fatal(err)
		}
		in := SearchReq{Query: core.Query{ImageEncodings: []vec.BitVec{full, codeOf(n, 1)}, AudioEncodings: []vec.BitVec{codeOf(n, 2)}}}
		got := roundTrip(t, KindSearch, in, &SearchReq{}).(SearchReq)
		for i, c := range in.Query.ImageEncodings {
			if !got.Query.ImageEncodings[i].Equal(c) {
				t.Errorf("%d bits: image code %d changed in transit", n, i)
			}
		}
		if !got.Query.AudioEncodings[0].Equal(in.Query.AudioEncodings[0]) {
			t.Errorf("%d bits: audio code changed in transit", n)
		}
		if full.OnesCount() != n || got.Query.ImageEncodings[0].OnesCount() != n {
			t.Errorf("%d bits: all-ones code carries %d ones after the trip", n, got.Query.ImageEncodings[0].OnesCount())
		}
	}
}

func TestCodeTailBitsRejected(t *testing.T) {
	// A 100-bit code occupies two words; setting bit 100 (the first tail
	// bit, in the last byte-range of the second word) must be rejected, not
	// masked, so that every accepted payload has one encoding.
	env, err := NewEnvelope(KindSearch, "", 1, 0, SearchReq{Query: core.Query{ImageEncodings: []vec.BitVec{vec.NewBitVec(100)}}})
	if err != nil {
		t.Fatal(err)
	}
	var ok SearchReq
	if err := env.Decode(&ok); err != nil {
		t.Fatal(err)
	}
	// Layout: repo "" (1), tokens 0 (1), image count 1 (1), bits 100 (1),
	// then 16 code bytes; bit 100 is bit 4 of byte 12 of the code.
	data := append([]byte(nil), env.Data...)
	data[4+12] |= 1 << 4
	bad := &Envelope{Kind: KindSearch, Data: data}
	var req SearchReq
	if err := bad.Decode(&req); !errors.Is(err, ErrMalformed) {
		t.Errorf("tail bit set: err = %v, want ErrMalformed", err)
	}
}

func TestNewEnvelopeRejectsMixedCodeLengths(t *testing.T) {
	q := SearchReq{Query: core.Query{ImageEncodings: []vec.BitVec{vec.NewBitVec(64), vec.NewBitVec(65)}}}
	if _, err := NewEnvelope(KindSearch, "", 1, 0, q); err == nil {
		t.Error("codes of mixed lengths in one list encoded without error")
	}
}

// TestPayloadDecodeRejectsHugeCounts: a count that the remaining bytes
// cannot hold is rejected before anything is allocated for it, whichever
// count field carries it.
func TestPayloadDecodeRejectsHugeCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name string
		into binaryDecoder
		data []byte
	}{
		{"search/repo", &SearchReq{}, cat(huge)},
		{"search/tokens", &SearchReq{}, cat([]byte{0}, huge)},
		{"search/codes", &SearchReq{}, cat([]byte{0, 0}, huge, []byte{64}, make([]byte, 8))},
		{"search/bits", &SearchReq{}, cat([]byte{0, 0, 1}, huge)},
		{"update/ciphertext", &UpdateReq{}, cat([]byte{0, 0, 0}, huge)},
		{"search-resp/hits", &SearchResp{}, cat([]byte{0, 0, 0}, huge)},
		{"repl-records/records", &ReplRecords{}, cat([]byte{0, 0, 0}, huge)},
		{"repl-records/payload", &ReplRecords{}, cat([]byte{0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0}, huge)},
		{"get-resp/owner", &GetResp{}, cat([]byte{0, 0, 0, 0}, huge)},
	}
	for _, c := range cases {
		var err error
		n := allocatedBytes(func() {
			d := decoder{b: c.data}
			c.into.decodeBinary(&d)
			err = d.finish()
		})
		if !errors.Is(err, errCount) && !errors.Is(err, errCodeBits) {
			t.Errorf("%s: err = %v, want a count or bit-length rejection", c.name, err)
		}
		if n > 1024 {
			t.Errorf("%s: %d bytes allocated before the rejection", c.name, n)
		}
	}
}

// allocatedBytes returns the bytes the process allocated while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestEnvelopeHeaderRoundTrip(t *testing.T) {
	env, err := NewEnvelope("some-future-kind", "bearer", 1<<63, 3*time.Second, Ack{})
	if err != nil {
		t.Fatal(err)
	}
	env.TraceID, env.SpanID, env.TraceSampled = 0xdead, 0xbeef, true
	var buf bytes.Buffer
	if _, err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Errorf("header round trip:\n got %+v\nwant %+v", got, env)
	}
}

// TestGobFramedPeerIsMalformed: a peer still framing gob envelopes fails on
// its first frame as ErrMalformed, whichever side it is on.
func TestGobFramedPeerIsMalformed(t *testing.T) {
	var frame bytes.Buffer
	if err := gob.NewEncoder(&frame).Encode(Envelope{Kind: KindHelloResp, ID: 1}); err != nil {
		t.Fatal(err)
	}
	var gobFrame bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(frame.Len()))
	gobFrame.Write(hdr[:])
	gobFrame.Write(frame.Bytes())

	if _, _, err := ReadFrame(bytes.NewReader(gobFrame.Bytes())); !errors.Is(err, ErrMalformed) {
		t.Errorf("ReadFrame of a gob frame: err = %v, want ErrMalformed", err)
	}
	peer := struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(gobFrame.Bytes()), io.Discard}
	if _, err := Handshake(peer); !errors.Is(err, ErrMalformed) {
		t.Errorf("Handshake against a gob-framed peer: err = %v, want ErrMalformed", err)
	}
}

// writeCounter counts Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteEnvelopeOneWritePerFrame(t *testing.T) {
	var w writeCounter
	for i, p := range []interface{}{benchQuery(), benchResp(), Hello{MaxVersion: ProtocolV2}} {
		env, err := NewEnvelope(KindSearch, "tok", uint64(i+1), 0, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteEnvelope(&w, env); err != nil {
			t.Fatal(err)
		}
		if w.writes != i+1 {
			t.Fatalf("frame %d took %d writes in all, want %d", i, w.writes, i+1)
		}
	}
}

func TestEnvelopeRepoID(t *testing.T) {
	cases := []struct {
		kind    string
		payload interface{}
		want    string
	}{
		{KindSearch, SearchReq{RepoID: "photos", Query: core.Query{K: 1}}, "photos"},
		{KindGet, GetReq{RepoID: "notes", ObjectID: "o"}, "notes"},
		{KindUpdate, UpdateReq{RepoID: "mail"}, "mail"},
		{KindSearch, SearchReq{}, ""},
		{KindTraceGet, TraceGetReq{TraceID: 5}, ""},
		{KindRemove, RemoveReq{RepoID: "r"}, ""},
	}
	for _, c := range cases {
		env, err := NewEnvelope(c.kind, "", 1, 0, c.payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := env.RepoID(); got != c.want {
			t.Errorf("%s: RepoID() = %q, want %q", c.kind, got, c.want)
		}
	}
	if got := (&Envelope{Kind: KindSearch, Data: []byte{0x09, 'x'}}).RepoID(); got != "" {
		t.Errorf("truncated payload: RepoID() = %q, want empty", got)
	}
}

// goldenSearchFrame and goldenSearchRespFrame are the frames pinned under
// testdata: any change to the frame format or to these two payload codecs
// fails TestGoldenFrames.
func goldenSearchFrame(t testing.TB) []byte {
	t.Helper()
	env, err := NewEnvelope(KindSearch, "token", 42, 1500*time.Millisecond, SearchReq{
		RepoID: "photos",
		Query: core.Query{
			TextTokens:     map[dpe.Token]uint64{{0x02}: 3, {0x01}: 1},
			ImageEncodings: []vec.BitVec{codeOf(70, 0), codeOf(70, 1)},
			AudioEncodings: []vec.BitVec{codeOf(8, 2)},
			K:              10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.TraceID, env.SpanID, env.TraceSampled = 0x0102030405060708, 0x1112131415161718, true
	var buf bytes.Buffer
	if _, err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenSearchRespFrame(t testing.TB) []byte {
	t.Helper()
	env, err := NewEnvelope(KindSearchResp, "", 42, 0, SearchResp{Hits: []core.SearchHit{
		{ObjectID: "img-7", Owner: "alice", Score: 0.5, Ciphertext: []byte{0xca, 0xfe}},
		{ObjectID: "img-3", Owner: "bob", Score: 0.25},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFrames pins the encoding byte for byte. A deliberate format
// change rewrites the files from the frames built above (the failure
// prints them as hex) and changes frameFormat.
func TestGoldenFrames(t *testing.T) {
	for name, frame := range map[string][]byte{
		"search.golden":      goldenSearchFrame(t),
		"search-resp.golden": goldenSearchRespFrame(t),
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(string(bytes.Join(bytes.Fields(raw), nil)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: frame encoding changed:\n got %x\nwant %x", name, frame, want)
		}
		// The pinned bytes also decode to what was encoded.
		if _, _, err := ReadFrame(bytes.NewReader(want)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
