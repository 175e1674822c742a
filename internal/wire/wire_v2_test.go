package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"mie/internal/core"
)

func TestEnvelopeCarriesIDAndTimeout(t *testing.T) {
	env, err := NewEnvelope(KindSearch, "tok", 42, 1500*time.Millisecond, SearchReq{RepoID: "r", Query: core.Query{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Auth != "tok" || got.Kind != KindSearch {
		t.Errorf("envelope metadata lost: %+v", got)
	}
	d, ok := got.Timeout()
	if !ok || d != 1500*time.Millisecond {
		t.Errorf("timeout = %v (%v)", d, ok)
	}
	var req SearchReq
	if err := got.Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.RepoID != "r" || req.Query.K != 3 {
		t.Errorf("payload lost: %+v", req)
	}
}

func TestRepoOptionsFromCoreRoundTrip(t *testing.T) {
	w := RepoOptions{VocabWords: 500, VocabMaxIter: 7, TreeBranch: 4, TreeHeight: 2, TreeSeed: 9, TrainingSampleCap: 100, FusionCandidates: 30}
	if got := FromCore(w.ToCore()); got != w {
		t.Errorf("FromCore(ToCore(w)) = %+v, want %+v", got, w)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	env, err := NewEnvelope(KindHello, "", 1, 0, Hello{MaxVersion: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var hello Hello
	if err := got.Decode(&hello); err != nil {
		t.Fatal(err)
	}
	if hello.MaxVersion != ProtocolV2 {
		t.Errorf("MaxVersion = %d", hello.MaxVersion)
	}
}

func TestHandshakeRejectsNonV2Peer(t *testing.T) {
	for name, answer := range map[string][]byte{
		"error":      encodeFrame(t, KindError, Ack{Err: "unknown kind: hello"}),
		"version-1":  encodeFrame(t, KindHelloResp, HelloResp{Version: 1}),
		"no-version": encodeFrame(t, KindHelloResp, HelloResp{}),
	} {
		peer := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(answer), io.Discard}
		if _, err := Handshake(peer); err == nil || !strings.Contains(err.Error(), "protocol v2") {
			t.Errorf("%s: err = %v, want a protocol v2 error", name, err)
		}
	}
}
