package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"mie/internal/core"
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
		// A successfully decoded envelope must survive re-encoding, and its
		// payload decode must not panic regardless of content.
		var buf bytes.Buffer
		if _, werr := WriteEnvelope(&buf, env); werr != nil {
			t.Errorf("re-encode of decoded envelope failed: %v", werr)
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
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})

	f.Fuzz(func(t *testing.T, data []byte) {
		env := &Envelope{Kind: KindReplRecords, Data: data}
		var batch ReplRecords
		if err := env.Decode(&batch); err != nil {
			return // malformed gob: rejected before any record is seen
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
