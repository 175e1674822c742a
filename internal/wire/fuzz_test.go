package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/vec"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame decoder. The
// decoder sits directly on the network in front of untrusted peers, so it
// must never panic and must classify every failure as exactly one of: clean
// EOF, oversized frame, malformed envelope, or a generic read error — the
// classification serveConn's counters depend on.
//
// Run the long version with:
//
//	go test -run='^$' -fuzz=FuzzReadFrame -fuzztime=30s ./internal/wire
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: well-formed frames of every request/response kind plus a
	// few interesting corruptions (see also testdata/fuzz/FuzzReadFrame).
	seed := func(kind string, payload interface{}) {
		f.Add(encodeFrame(f, kind, payload))
	}
	seed(KindSearch, SearchReq{RepoID: "r", Query: core.Query{K: 10}})
	seed(KindAck, Ack{Err: "boom"})
	seed(KindGetResp, GetResp{Ciphertext: []byte{1, 2, 3}, Owner: "me"})
	seed(KindCancel, CancelReq{ID: 99})
	seed(KindHello, Hello{MaxVersion: ProtocolV2})
	seed(KindTrainWait, TrainJobReq{RepoID: "r", JobID: 7})
	seed(KindUpdate, UpdateReq{RepoID: "r", Update: core.Update{ObjectID: "o", Ciphertext: []byte("ct"),
		TextTokens: map[dpe.Token]uint64{{7}: 2}, ImageEncodings: []vec.BitVec{vec.NewBitVec(130)}}})
	seed(KindSearchResp, SearchResp{Hits: []core.SearchHit{{ObjectID: "a", Score: 0.5, Ciphertext: []byte{1}}}})
	seed(KindReplRecords, ReplRecords{RepoID: "r", Records: []ReplRecord{NewReplRecord(1, 1, ReplMutation, 9, []byte("rec"))}})
	seed("not-a-kind", nil)
	f.Add(goldenSearchFrame(f))
	var v2 bytes.Buffer
	env, err := NewEnvelope(KindSearch, "token", 123, 5*time.Second, SearchReq{RepoID: "x"})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := WriteEnvelope(&v2, env); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		env, n, err := ReadFrame(r)
		if err != nil {
			if env != nil {
				t.Errorf("non-nil envelope alongside error %v", err)
			}
			// Every error must fall into exactly one classification bucket.
			switch {
			case errors.Is(err, io.EOF):
				if IsMalformed(err) {
					t.Errorf("EOF classified as malformed: %v", err)
				}
			case IsMalformed(err):
			default:
				// Generic read error: only truncation can cause it on an
				// in-memory reader.
				if r.Len() == 0 && len(data) >= 4 {
					// ReadFull hit the end mid-body: expected.
					break
				}
			}
			return
		}
		if n < 4 || n > len(data) {
			t.Errorf("reported size %d outside [4, %d]", n, len(data))
		}
		// A successfully decoded envelope re-encodes to the bytes it came
		// from (the header is canonical), and its payload decode must not
		// panic regardless of content.
		var buf bytes.Buffer
		if _, werr := WriteEnvelope(&buf, env); werr != nil {
			t.Errorf("re-encode of decoded envelope failed: %v", werr)
		} else if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Errorf("re-encoded frame differs:\n got %x\nwant %x", buf.Bytes(), data[:n])
		}
		var ack Ack
		_ = env.Decode(&ack)
		var sr SearchReq
		_ = env.Decode(&sr)
	})
}

// FuzzReplRecordDecode targets the replication batch decoder: a
// KindReplRecords envelope whose Data bytes are controlled by whatever sits
// between leader and follower. The decoder must never panic, Verify must
// agree exactly with a CRC recomputation (classifying every mismatch as
// ErrReplCRC), and a verified record must re-seal to the identical checksum.
//
// Run the long version with:
//
//	go test -run='^$' -fuzz=FuzzReplRecordDecode -fuzztime=30s ./internal/wire
func FuzzReplRecordDecode(f *testing.F) {
	seed := func(batch ReplRecords) {
		env, err := NewEnvelope(KindReplRecords, "", 7, 0, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env.Data)
	}
	seed(ReplRecords{RepoID: "r", Records: []ReplRecord{
		NewReplRecord(1, 1, ReplMutation, 42, []byte("wal record bytes")),
		NewReplRecord(1, 2, ReplSnapshot, 43, []byte("snapshot image")),
	}})
	corrupt := NewReplRecord(9, 3, ReplCreate, 0, []byte("catalog event"))
	corrupt.CRC ^= 0xffffffff
	seed(ReplRecords{RepoID: "", Records: []ReplRecord{corrupt}})
	seed(ReplRecords{Err: "repository gone", Code: ErrCodeRepoNotFound, RepoID: "x"})
	seed(ReplRecords{RepoID: "r", Records: []ReplRecord{NewReplRecord(2, 1<<40, ReplSnapshot, -1, nil)}})
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})

	f.Fuzz(func(t *testing.T, data []byte) {
		env := &Envelope{Kind: KindReplRecords, Data: data}
		var batch ReplRecords
		if err := env.Decode(&batch); err != nil {
			return // malformed batch: rejected before any record is seen
		}
		for i := range batch.Records {
			rec := &batch.Records[i]
			err := rec.Verify()
			valid := crc32.ChecksumIEEE(rec.Payload) == rec.CRC
			if valid != (err == nil) {
				t.Errorf("record %d: Verify err=%v disagrees with recomputed CRC validity %v", i, err, valid)
			}
			if err != nil && !errors.Is(err, ErrReplCRC) {
				t.Errorf("record %d: Verify returned %v, want ErrReplCRC", i, err)
			}
			if err == nil {
				if re := NewReplRecord(rec.Gen, rec.Seq, rec.Kind, rec.UnixNano, rec.Payload); re.CRC != rec.CRC {
					t.Errorf("record %d: re-seal changed CRC %08x -> %08x", i, rec.CRC, re.CRC)
				}
			}
		}
	})
}

// FuzzEnvelopeDecode targets the second decode stage: a valid envelope
// whose Data bytes are attacker-controlled.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add("search", []byte{})
	f.Add("ack", []byte{0xde, 0xad})
	f.Add(KindSearch, encodeFrame(f, KindSearch, SearchReq{RepoID: "q"}))

	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		env := &Envelope{Kind: kind, Data: data}
		var ack Ack
		_ = env.Decode(&ack)
		var sr SearchReq
		_ = env.Decode(&sr)
		var tj TrainJobResp
		_ = env.Decode(&tj)
	})
}

// binaryPayloads lists every payload with a binary codec, with a sample
// value of each for the seed corpus.
var binaryPayloads = []struct {
	kind   string
	new    func() binaryDecoder
	sample interface{}
}{
	{KindSearch, func() binaryDecoder { return new(SearchReq) }, SearchReq{RepoID: "r", Query: core.Query{
		TextTokens: map[dpe.Token]uint64{{1}: 1, {2}: 300}, ImageEncodings: []vec.BitVec{vec.NewBitVec(70)}, K: 10}}},
	{KindSearchResp, func() binaryDecoder { return new(SearchResp) }, SearchResp{Hits: []core.SearchHit{{ObjectID: "o", Owner: "u", Score: 1, Ciphertext: []byte("ct")}}}},
	{KindUpdate, func() binaryDecoder { return new(UpdateReq) }, UpdateReq{RepoID: "r", Update: core.Update{ObjectID: "o", Ciphertext: []byte("ct"),
		AudioEncodings: []vec.BitVec{vec.NewBitVec(8), vec.NewBitVec(8)}}}},
	{KindGet, func() binaryDecoder { return new(GetReq) }, GetReq{RepoID: "r", ObjectID: "o"}},
	{KindGetResp, func() binaryDecoder { return new(GetResp) }, GetResp{Ciphertext: []byte("ct"), Owner: "u"}},
	{KindAck, func() binaryDecoder { return new(Ack) }, Ack{Err: "quota", Code: ErrCodeOverQuota, RetryAfterNanos: 5e8}},
	{KindReplRecords, func() binaryDecoder { return new(ReplRecords) }, ReplRecords{RepoID: "r", Records: []ReplRecord{NewReplRecord(1, 2, ReplMutation, 3, []byte("rec"))}}},
}

// FuzzPayloadDecode feeds arbitrary bytes to every binary payload decoder
// (which selects one). A decoder must never panic; a payload it accepts
// must re-encode to exactly the same bytes (the encoding is canonical); and
// what it allocates stays proportional to its input, because every count is
// checked against the remaining bytes before anything is allocated for it.
//
// Run the long version with:
//
//	go test -run='^$' -fuzz=FuzzPayloadDecode -fuzztime=30s ./internal/wire
func FuzzPayloadDecode(f *testing.F) {
	for i, p := range binaryPayloads {
		env, err := NewEnvelope(p.kind, "", 1, 0, p.sample)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), env.Data)
		f.Add(uint8(i), env.Data[:len(env.Data)/2])
	}
	f.Add(uint8(0), []byte{0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		p := binaryPayloads[int(which)%len(binaryPayloads)]
		v := p.new()
		var err error
		n := allocatedBytes(func() { err = (&Envelope{Kind: p.kind, Data: data}).Decode(v) })
		if limit := uint64(64*len(data) + 64<<10); n > limit {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", p.kind, len(data), n)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: decode error %v is not ErrMalformed", p.kind, err)
			}
			return
		}
		env, err := NewEnvelope(p.kind, "", 1, 0, v)
		if err != nil {
			t.Fatalf("%s: re-encode of a decoded payload failed: %v", p.kind, err)
		}
		if !bytes.Equal(env.Data, data) {
			t.Errorf("%s: re-encoded payload differs:\n got %x\nwant %x", p.kind, env.Data, data)
		}
	})
}
