package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mie/internal/core"
	"mie/internal/device"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/wire"
)

var bg = context.Background()

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil); err == nil {
		t.Error("expected connection error for closed port")
	}
}

// listen serves every accepted connection with handle on its own goroutine
// and closes the connection when handle returns.
func listen(t *testing.T, handle func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				handle(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// reply writes one response frame echoing request id.
func reply(conn net.Conn, id uint64, kind string, payload interface{}) error {
	env, err := wire.NewEnvelope(kind, "", id, 0, payload)
	if err != nil {
		return err
	}
	_, err = wire.WriteEnvelope(conn, env)
	return err
}

// answerHello reads the client's hello and answers it with protocol v2.
func answerHello(conn net.Conn) bool {
	env, _, err := wire.ReadFrame(conn)
	if err != nil || env.Kind != wire.KindHello {
		return false
	}
	return reply(conn, env.ID, wire.KindHelloResp, wire.HelloResp{Version: wire.ProtocolV2}) == nil
}

// serveAll answers every request on conn with the given envelope
// kind/payload, echoing the request's ID.
func serveAll(conn net.Conn, kind string, payload interface{}) {
	for {
		env, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		if reply(conn, env.ID, kind, payload) != nil {
			return
		}
	}
}

// fakeServer accepts connections, answers the hello with protocol v2 and
// every request with the given envelope kind/payload.
func fakeServer(t *testing.T, kind string, payload interface{}) string {
	return listen(t, func(conn net.Conn) {
		if answerHello(conn) {
			serveAll(conn, kind, payload)
		}
	})
}

// fakeMuxServer answers the hello of each connection with protocol v2 and
// hands the connection to serve.
func fakeMuxServer(t *testing.T, serve func(conn net.Conn)) string {
	return listen(t, func(conn net.Conn) {
		if answerHello(conn) {
			serve(conn)
		}
	})
}

// dropAfterRequest answers the hello, reads one request and hangs up
// without answering it.
func dropAfterRequest(conn net.Conn) {
	if answerHello(conn) {
		_, _, _ = wire.ReadFrame(conn)
	}
}

// trainDone is a train-job response for a finished job.
var trainDone = wire.TrainJobResp{Job: wire.TrainJobStatus{JobID: 1, State: string(core.TrainDone)}}

func TestDialRejectsNonV2Peer(t *testing.T) {
	// A server that does not know the hello kind answers it with an error.
	addr := listen(t, func(conn net.Conn) {
		serveAll(conn, wire.KindError, wire.Ack{Err: "unknown kind: hello"})
	})
	if _, err := Dial(addr, nil); err == nil || !strings.Contains(err.Error(), "protocol v2") {
		t.Errorf("Dial err = %v, want an error naming protocol v2", err)
	}
}

func TestServerErrorKindSurfaced(t *testing.T) {
	addr := fakeServer(t, wire.KindError, wire.Ack{Err: "nope"})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Train(bg, "r")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("err = %v, want server error text", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Errorf("server-reported error not a RemoteError: %T", err)
	}
}

func TestAckErrorSurfaced(t *testing.T) {
	addr := fakeServer(t, wire.KindAck, wire.Ack{Err: "repository not found: x"})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Remove(bg, "x", "obj"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("err = %v", err)
	}
}

func TestSearchRespError(t *testing.T) {
	addr := fakeServer(t, wire.KindSearchResp, wire.SearchResp{Err: "boom"})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Search(bg, "r", &core.Query{K: 1}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestGetRespError(t *testing.T) {
	addr := fakeServer(t, wire.KindGetResp, wire.GetResp{Err: "missing"})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get(bg, "r", "obj"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("err = %v", err)
	}
}

func TestConnClosedMidRequest(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		_ = ln.Close() // no redial can reach a server
		if err != nil {
			return
		}
		answerHello(conn)
		_ = conn.Close() // hang up without answering any request
	}()
	c, err := Dial(ln.Addr().String(), device.NewMeter(device.Desktop))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Train(bg, "r"); err == nil {
		t.Error("expected error after server hangup")
	}
}

func TestSetTokenIsAttached(t *testing.T) {
	gotAuth := make(chan string, 1)
	addr := fakeMuxServer(t, func(conn net.Conn) {
		env, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		gotAuth <- env.Auth
		_ = reply(conn, env.ID, wire.KindTrainJobResp, trainDone)
	})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken("bearer-xyz")
	if err := c.Train(bg, "r"); err != nil {
		t.Fatal(err)
	}
	if auth := <-gotAuth; auth != "bearer-xyz" {
		t.Errorf("server saw auth %q", auth)
	}
}

func TestTrainWaitsForRunningJob(t *testing.T) {
	// Train blocks: it starts a job, then waits again for as long as the
	// server reports it running (a wait whose deadline lapsed server-side),
	// and surfaces a failed run as a RemoteError.
	for _, final := range []wire.TrainJobStatus{
		{JobID: 7, State: string(core.TrainDone)},
		{JobID: 7, State: string(core.TrainFailed), Err: "kmeans exploded"},
	} {
		kinds := make(chan string, 8)
		addr := fakeMuxServer(t, func(conn net.Conn) {
			answers := []wire.TrainJobStatus{
				{JobID: 7, State: string(core.TrainRunning)},
				{JobID: 7, State: string(core.TrainRunning)},
				final,
			}
			for _, st := range answers {
				env, _, err := wire.ReadFrame(conn)
				if err != nil {
					return
				}
				kinds <- env.Kind
				if env.Kind == wire.KindTrainWait {
					var req wire.TrainJobReq
					if env.Decode(&req) != nil || req.JobID != 7 {
						return
					}
				}
				if reply(conn, env.ID, wire.KindTrainJobResp, wire.TrainJobResp{Job: st}) != nil {
					return
				}
			}
		})
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = c.Train(bg, "r")
		_ = c.Close()
		// Every request was recorded before it was answered.
		var got []string
		for len(kinds) > 0 {
			got = append(got, <-kinds)
		}
		if want := []string{wire.KindTrainStart, wire.KindTrainWait, wire.KindTrainWait}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: requests = %v, want %v", final.State, got, want)
		}
		var re *RemoteError
		switch {
		case final.Err == "" && err != nil:
			t.Errorf("train of a finished job: %v", err)
		case final.Err != "" && (!errors.As(err, &re) || re.Msg != final.Err):
			t.Errorf("train of a failed job: err = %v, want RemoteError %q", err, final.Err)
		}
	}
}

func TestMuxInterleavedResponses(t *testing.T) {
	leakcheck.Check(t)
	// 100 concurrent callers share one connection. The server collects every
	// request before answering any, then replies in a shuffled order — the
	// demux must still route each response to the caller whose ID it echoes.
	const callers = 100
	addr := fakeMuxServer(t, func(conn net.Conn) {
		envs := make([]*wire.Envelope, 0, callers)
		for len(envs) < callers {
			env, _, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			envs = append(envs, env)
		}
		rng := rand.New(rand.NewSource(7))
		rng.Shuffle(len(envs), func(i, j int) { envs[i], envs[j] = envs[j], envs[i] })
		for _, env := range envs {
			var req wire.SearchReq
			if err := env.Decode(&req); err != nil {
				return
			}
			resp, err := wire.NewEnvelope(wire.KindSearchResp, "", env.ID, 0,
				wire.SearchResp{Hits: []core.SearchHit{{ObjectID: req.RepoID}}})
			if err != nil {
				return
			}
			if _, err := wire.WriteEnvelope(conn, resp); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			repo := fmt.Sprintf("repo-%03d", i)
			hits, err := c.Search(bg, repo, &core.Query{K: 1})
			if err != nil {
				errs <- fmt.Errorf("caller %d: %w", i, err)
				return
			}
			if len(hits) != 1 || hits[0].ObjectID != repo {
				errs <- fmt.Errorf("caller %d got %+v", i, hits)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCancelEmitsCancelFrame(t *testing.T) {
	searchID := make(chan uint64, 1)
	sawCancel := make(chan wire.CancelReq, 1)
	addr := fakeMuxServer(t, func(conn net.Conn) {
		env, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		searchID <- env.ID // hold the request: never answer it
		env, _, err = wire.ReadFrame(conn)
		if err != nil || env.Kind != wire.KindCancel {
			return
		}
		var cr wire.CancelReq
		if err := env.Decode(&cr); err == nil {
			sawCancel <- cr
		}
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := c.Search(ctx, "r", &core.Query{K: 1})
		done <- err
	}()
	var id uint64
	select {
	case id = <-searchID:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the search")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled search returned %v, want context.Canceled", err)
	}
	select {
	case cr := <-sawCancel:
		if cr.ID != id {
			t.Errorf("cancel frame names request %d, want %d", cr.ID, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never received a cancel frame")
	}
	if got := reg.Counter("client_cancel_frames_total").Value(); got != 1 {
		t.Errorf("client_cancel_frames_total = %d, want 1", got)
	}
}

func TestPoisonedConnNotReused(t *testing.T) {
	// Regression: a response abandoned mid-frame leaves the TCP stream at an
	// undefined position. The connection must be poisoned and replaced — not
	// reused, where the next call would misread leftover bytes as its reply.
	var accepts int32
	addr := fakeMuxServer(t, func(conn net.Conn) {
		if atomic.AddInt32(&accepts, 1) == 1 {
			if _, _, err := wire.ReadFrame(conn); err != nil {
				return
			}
			// Header promises 50 bytes; send 5 and hang up: the reply is
			// cut off mid-frame.
			_, _ = conn.Write([]byte{0, 0, 0, 50, 1, 2, 3, 4, 5})
			return
		}
		serveAll(conn, wire.KindTrainJobResp, trainDone)
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Train(bg, "r"); err == nil {
		t.Fatal("train on the cut-off connection should have failed")
	}
	// The next call must run on a fresh connection and succeed.
	if err := c.Train(bg, "r"); err != nil {
		t.Fatalf("train after poison: %v", err)
	}
	if got := atomic.LoadInt32(&accepts); got != 2 {
		t.Errorf("server saw %d connections, want 2 (poisoned conn replaced)", got)
	}
	if got := reg.Counter("client_reconnects_total").Value(); got != 1 {
		t.Errorf("client_reconnects_total = %d, want 1", got)
	}
}

func TestIdempotentCallReconnects(t *testing.T) {
	// A server that drops the first connection after the hello: Search
	// (idempotent) retries on a fresh one and succeeds without the caller
	// noticing.
	var accepts int32
	addr := listen(t, func(conn net.Conn) {
		if atomic.AddInt32(&accepts, 1) == 1 {
			dropAfterRequest(conn)
			return
		}
		if answerHello(conn) {
			serveAll(conn, wire.KindSearchResp, wire.SearchResp{Hits: []core.SearchHit{{ObjectID: "x"}}})
		}
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hits, err := c.Search(bg, "r", &core.Query{K: 1})
	if err != nil {
		t.Fatalf("search did not survive the dropped connection: %v", err)
	}
	if len(hits) != 1 || hits[0].ObjectID != "x" {
		t.Errorf("hits = %+v", hits)
	}
	if got := reg.Counter("client_reconnects_total").Value(); got < 1 {
		t.Errorf("client_reconnects_total = %d, want >= 1", got)
	}
}

func TestMutationNotRetried(t *testing.T) {
	// Update is not idempotent: a transport error surfaces to the caller
	// instead of being silently re-sent.
	var accepts int32
	addr := listen(t, func(conn net.Conn) {
		atomic.AddInt32(&accepts, 1)
		dropAfterRequest(conn)
	})
	reg := obs.NewRegistry()
	c, err := Dial(addr, nil, WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Update(bg, "r", &core.Update{}); err == nil {
		t.Fatal("update on a dropped connection should fail")
	}
	if got := reg.Counter("client_reconnects_total").Value(); got != 0 {
		t.Errorf("client_reconnects_total = %d, want 0 (mutations must not retry)", got)
	}
	if got := atomic.LoadInt32(&accepts); got != 1 {
		t.Errorf("server saw %d connections, want 1", got)
	}
}

func TestCallsAfterCloseFail(t *testing.T) {
	leakcheck.Check(t)
	addr := fakeServer(t, wire.KindAck, wire.Ack{})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := c.Search(bg, "r", &core.Query{K: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("search after close: %v, want ErrClosed", err)
	}
}
