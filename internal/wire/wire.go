// Package wire is the framing layer of the MIE network protocol: length-
// prefixed frames carrying gob-encoded envelopes. All client-server traffic
// of Figure 1 flows through it (in deployment, inside a TLS tunnel;
// transport security is orthogonal to the scheme and stdlib crypto/tls
// wraps net.Conn directly).
//
// # Protocol
//
// The protocol (version 2) multiplexes: every request carries a nonzero
// ID, responses echo the ID of the request they answer, and may arrive in
// any order; requests may carry a deadline (a relative time budget, immune
// to clock skew) and may be abandoned early with a Cancel frame naming the
// in-flight ID. Only the hello, cancel and repl-ack kinds may be sent with
// ID zero: a request of any other kind with ID zero is a protocol
// violation, and the server and the router drop the connection as they do
// for an undecodable frame. A client opens each connection with Handshake.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"time"

	"mie/internal/auth"
	"mie/internal/core"
)

// ProtocolV2 is the protocol version exchanged by Hello/HelloResp: the
// multiplexed protocol with per-request IDs, deadlines, cancellation and
// asynchronous training jobs.
const ProtocolV2 = 2

// MaxFrameSize bounds a single frame; oversized frames indicate a corrupt
// or malicious peer and abort the connection rather than exhausting memory.
const MaxFrameSize = 256 << 20

// Frame-level errors.
var (
	// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrMalformed is wrapped around envelope decode failures: bytes arrived
	// but are not a valid frame. Distinguishes a corrupt or hostile peer from
	// a clean disconnect (io.EOF) or a transport failure.
	ErrMalformed = errors.New("wire: malformed frame")
)

// IsMalformed reports whether err indicates a peer speaking the protocol
// incorrectly (oversized or undecodable frames) rather than a transport
// error or clean shutdown.
func IsMalformed(err error) bool {
	return errors.Is(err, ErrMalformed) || errors.Is(err, ErrFrameTooLarge)
}

// Message kinds.
const (
	KindCreateRepo = "create-repo"
	KindUpdate     = "update"
	KindRemove     = "remove"
	KindSearch     = "search"
	KindGet        = "get"
	KindAck        = "ack"
	KindSearchResp = "search-resp"
	KindGetResp    = "get-resp"
	KindError      = "error"

	// KindHello opens a connection (see Handshake); the server answers
	// KindHelloResp.
	KindHello     = "hello"
	KindHelloResp = "hello-resp"
	// KindCancel abandons an in-flight request by ID. It is fire-and-forget:
	// the server never responds to it (the canceled request's response, if
	// any, is dropped by the client's demux).
	KindCancel = "cancel"
	// KindTrainStart launches an asynchronous server-side training job and
	// returns its handle immediately; KindTrainStatus polls it and
	// KindTrainWait blocks (bounded by the request deadline) until the job
	// finishes. All three answer with KindTrainJobResp.
	KindTrainStart   = "train-start"
	KindTrainStatus  = "train-status"
	KindTrainWait    = "train-wait"
	KindTrainJobResp = "train-job-resp"
	// KindTraceGet fetches the server-side span tree of a completed traced
	// request by TraceID (mie-client -trace); answered with KindTraceResp.
	KindTraceGet  = "trace-get"
	KindTraceResp = "trace-resp"
)

// Envelope is one protocol message: a kind tag, an optional bearer
// authorization token (see internal/auth), multiplexing metadata and the
// gob encoding of the kind's payload struct.
type Envelope struct {
	Kind string
	Auth string
	// ID correlates a response with its request on a multiplexed
	// connection. It is nonzero on every request except the hello, cancel
	// and repl-ack kinds.
	ID uint64
	// TimeoutNanos is the remaining time budget of the request at send time
	// (relative, so peers need not share a clock); 0 means no deadline.
	// The server derives the request's context.Context deadline from it.
	TimeoutNanos int64
	// TraceID and SpanID propagate the caller's distributed-tracing context:
	// the trace this request belongs to and the client span the server-side
	// spans should parent under. Zero means untraced. TraceSampled carries
	// the client's head-sampling decision so both sides keep the same
	// traces.
	TraceID      uint64
	SpanID       uint64
	TraceSampled bool
	Data         []byte
}

// Timeout returns the request's remaining time budget, if any.
func (e *Envelope) Timeout() (time.Duration, bool) {
	if e.TimeoutNanos <= 0 {
		return 0, false
	}
	return time.Duration(e.TimeoutNanos), true
}

// Request payloads.
type (
	// Hello opens a connection.
	Hello struct {
		// MaxVersion is the highest protocol version the client speaks.
		MaxVersion int
	}
	// CancelReq abandons the in-flight request with the given ID.
	CancelReq struct {
		ID uint64
	}
	// CreateRepoReq creates a repository with the given engine parameters.
	CreateRepoReq struct {
		RepoID string
		Opts   RepoOptions
	}
	// RepoOptions is the serializable subset of core.RepositoryOptions.
	RepoOptions struct {
		VocabWords        int
		VocabMaxIter      int
		TreeBranch        int
		TreeHeight        int
		TreeSeed          int64
		TrainingSampleCap int
		FusionCandidates  int
	}
	// TrainReq starts an asynchronous server-side training job
	// (KindTrainStart).
	TrainReq struct {
		RepoID string
	}
	// TrainJobReq addresses one training job (KindTrainStatus/KindTrainWait).
	TrainJobReq struct {
		RepoID string
		JobID  uint64
	}
	// UpdateReq uploads an encrypted object and its encodings.
	UpdateReq struct {
		RepoID string
		Update core.Update
	}
	// RemoveReq deletes an object.
	RemoveReq struct {
		RepoID   string
		ObjectID string
	}
	// SearchReq runs a multimodal query.
	SearchReq struct {
		RepoID string
		Query  core.Query
	}
	// GetReq fetches one stored ciphertext.
	GetReq struct {
		RepoID   string
		ObjectID string
	}
	// TraceGetReq fetches the server-side trace of a completed request.
	TraceGetReq struct {
		TraceID uint64
	}
)

// Error codes carried by response frames alongside the human-readable Err
// string, so clients match on a stable code instead of message text. Gob
// tolerates missing fields, so a frame that carries no code decodes as
// ErrCodeUnspecified.
const (
	// ErrCodeUnspecified is the zero value: an error with no machine-
	// readable classification (or a frame from a peer predating codes).
	ErrCodeUnspecified = 0
	// ErrCodeExists: the repository already exists (core.ErrRepoExists).
	ErrCodeExists = 1
	// ErrCodeRepoNotFound: unknown repository (core.ErrRepoNotFound).
	ErrCodeRepoNotFound = 2
	// ErrCodeOverQuota: the tenant exceeded an admission quota
	// (core.ErrOverQuota); the response carries a retry-after hint.
	ErrCodeOverQuota = 3
	// ErrCodeUnauthorized: the bearer token was rejected.
	ErrCodeUnauthorized = 4
	// ErrCodeUnknownObject: unknown object id (core.ErrUnknownObject).
	ErrCodeUnknownObject = 5
	// ErrCodeUnknownJob: unknown training job (core.ErrUnknownJob).
	ErrCodeUnknownJob = 6
)

// ErrCode classifies an engine/auth error into its wire code and, for quota
// rejections, extracts the server's retry-after hint. Servers call it when
// building any error-carrying response.
func ErrCode(err error) (code int, retryAfter time.Duration) {
	switch {
	case err == nil:
		return ErrCodeUnspecified, 0
	case errors.Is(err, core.ErrRepoExists):
		return ErrCodeExists, 0
	case errors.Is(err, core.ErrRepoNotFound):
		return ErrCodeRepoNotFound, 0
	case errors.Is(err, core.ErrOverQuota):
		var qe *core.QuotaError
		if errors.As(err, &qe) {
			return ErrCodeOverQuota, qe.RetryAfter
		}
		return ErrCodeOverQuota, 0
	case errors.Is(err, auth.ErrMalformed), errors.Is(err, auth.ErrBadMAC),
		errors.Is(err, auth.ErrExpired), errors.Is(err, auth.ErrWrongRepo),
		errors.Is(err, auth.ErrRevoked):
		return ErrCodeUnauthorized, 0
	case errors.Is(err, core.ErrUnknownObject):
		return ErrCodeUnknownObject, 0
	case errors.Is(err, core.ErrUnknownJob):
		return ErrCodeUnknownJob, 0
	}
	return ErrCodeUnspecified, 0
}

// Sentinel maps a wire error code back to the engine sentinel it encodes
// (nil for codes without one), so client-side errors unwrap to the same
// values errors.Is matches against locally.
func Sentinel(code int) error {
	switch code {
	case ErrCodeExists:
		return core.ErrRepoExists
	case ErrCodeRepoNotFound:
		return core.ErrRepoNotFound
	case ErrCodeOverQuota:
		return core.ErrOverQuota
	case ErrCodeUnknownObject:
		return core.ErrUnknownObject
	case ErrCodeUnknownJob:
		return core.ErrUnknownJob
	}
	return nil
}

// Response payloads.
type (
	// HelloResp answers a Hello with the version the server selected.
	// The remaining fields describe the node's replication role — the
	// router's health probe reads them to prefer caught-up replicas. Gob
	// tolerates missing fields, so peers predating replication see a
	// zero Role and everything interoperates.
	HelloResp struct {
		Version int
		// Role is "leader", "follower" or empty (replication not enabled).
		Role string
		// CaughtUp reports whether a follower is connected to its leader
		// with no received-but-unapplied records (always true on a leader).
		CaughtUp bool
		// LagNanos is the follower's last observed replication lag.
		LagNanos int64
	}
	// Ack acknowledges a mutation; Err is empty on success. Code classifies
	// the error (ErrCode* constants) and RetryAfterNanos, when positive,
	// hints when a rejected request may be retried — both zero on frames
	// from peers predating typed errors.
	Ack struct {
		Err             string
		Code            int
		RetryAfterNanos int64
	}
	// SearchResp carries ranked hits.
	SearchResp struct {
		Err             string
		Code            int
		RetryAfterNanos int64
		Hits            []core.SearchHit
	}
	// GetResp carries one ciphertext and its owner id.
	GetResp struct {
		Err             string
		Code            int
		RetryAfterNanos int64
		Ciphertext      []byte
		Owner           string
	}
	// TrainJobStatus mirrors core.TrainJobStatus on the wire.
	TrainJobStatus struct {
		JobID uint64
		State string
		Err   string
		Epoch uint64
	}
	// TrainJobResp answers the train-job kinds; Err reports request-level
	// failures (unknown repository/job), Job.Err a failed training run.
	TrainJobResp struct {
		Err             string
		Code            int
		RetryAfterNanos int64
		Job             TrainJobStatus
	}
	// TraceSpan is one span of a server-side trace on the wire.
	TraceSpan struct {
		SpanID        uint64
		ParentID      uint64
		Name          string
		StartUnixNano int64
		DurationNanos int64
		Err           string
	}
	// TraceResp answers KindTraceGet. Err is set when the trace is unknown
	// (never kept, or already evicted from the server's ring).
	TraceResp struct {
		Err           string
		TraceID       uint64
		Root          string
		StartUnixNano int64
		DurationNanos int64
		Reason        string
		Spans         []TraceSpan
	}
)

// ToCore converts wire options into engine options.
func (o RepoOptions) ToCore() core.RepositoryOptions {
	opts := core.RepositoryOptions{
		TrainingSampleCap: o.TrainingSampleCap,
		FusionCandidates:  o.FusionCandidates,
	}
	opts.Vocab.Words = o.VocabWords
	opts.Vocab.MaxIter = o.VocabMaxIter
	opts.Vocab.Seed = o.TreeSeed
	opts.Vocab.Tree.Branch = o.TreeBranch
	opts.Vocab.Tree.Height = o.TreeHeight
	opts.Vocab.Tree.Seed = o.TreeSeed
	return opts
}

// FromCore converts engine options into their wire representation.
func FromCore(opts core.RepositoryOptions) RepoOptions {
	return RepoOptions{
		VocabWords:        opts.Vocab.Words,
		VocabMaxIter:      opts.Vocab.MaxIter,
		TreeBranch:        opts.Vocab.Tree.Branch,
		TreeHeight:        opts.Vocab.Tree.Height,
		TreeSeed:          opts.Vocab.Seed,
		TrainingSampleCap: opts.TrainingSampleCap,
		FusionCandidates:  opts.FusionCandidates,
	}
}

// NewEnvelope gob-encodes payload into an envelope carrying the given
// request ID and relative deadline (0 = none).
func NewEnvelope(kind, authToken string, id uint64, timeout time.Duration, payload interface{}) (*Envelope, error) {
	var body bytes.Buffer
	if payload != nil {
		if err := gob.NewEncoder(&body).Encode(payload); err != nil {
			return nil, fmt.Errorf("wire: encode %s payload: %w", kind, err)
		}
	}
	return &Envelope{
		Kind:         kind,
		Auth:         authToken,
		ID:           id,
		TimeoutNanos: int64(timeout),
		Data:         body.Bytes(),
	}, nil
}

// WriteEnvelope writes env as one length-prefixed frame and returns the
// number of bytes written so callers can account transfer costs.
func WriteEnvelope(w io.Writer, env *Envelope) (int, error) {
	var frame bytes.Buffer
	if err := gob.NewEncoder(&frame).Encode(*env); err != nil {
		return 0, fmt.Errorf("wire: encode %s envelope: %w", env.Kind, err)
	}
	if frame.Len() > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(frame.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wire: write %s header: %w", env.Kind, err)
	}
	n, err := w.Write(frame.Bytes())
	if err != nil {
		return 0, fmt.Errorf("wire: write %s frame: %w", env.Kind, err)
	}
	return 4 + n, nil
}

// ReadFrame reads one envelope. It returns the envelope, its size on the
// wire, and any error (io.EOF on clean shutdown).
func ReadFrame(r io.Reader) (*Envelope, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wire: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > MaxFrameSize {
		return nil, 0, ErrFrameTooLarge
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0, fmt.Errorf("wire: read frame body: %w", err)
	}
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&env); err != nil {
		return nil, 0, fmt.Errorf("%w: decode envelope: %v", ErrMalformed, err)
	}
	return &env, 4 + int(size), nil
}

// Handshake opens a connection: it sends Hello and reads the peer's answer,
// which must be a HelloResp for protocol version 2 or later. Callers set
// their own dial timeouts and deadlines on rw.
func Handshake(rw io.ReadWriter) (HelloResp, error) {
	var hr HelloResp
	env, err := NewEnvelope(KindHello, "", 0, 0, Hello{MaxVersion: ProtocolV2})
	if err != nil {
		return hr, err
	}
	if _, err := WriteEnvelope(rw, env); err != nil {
		return hr, fmt.Errorf("wire: hello: %w", err)
	}
	resp, _, err := ReadFrame(rw)
	if err != nil {
		return hr, fmt.Errorf("wire: hello response: %w", err)
	}
	if resp.Kind != KindHelloResp {
		return hr, fmt.Errorf("wire: peer answered hello with %q, not protocol v2", resp.Kind)
	}
	if err := resp.Decode(&hr); err != nil {
		return hr, err
	}
	if hr.Version < ProtocolV2 {
		return hr, fmt.Errorf("wire: peer speaks protocol version %d, not protocol v2", hr.Version)
	}
	return hr, nil
}

// Decode unpacks the envelope payload into v.
func (e *Envelope) Decode(v interface{}) error {
	if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", e.Kind, err)
	}
	return nil
}
