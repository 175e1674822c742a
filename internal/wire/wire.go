// Package wire is the framing layer of the MIE network protocol: length-
// prefixed binary frames, each a fixed header followed by the payload. All
// client-server traffic of Figure 1 flows through it (in deployment, inside
// a TLS tunnel; transport security is orthogonal to the scheme and stdlib
// crypto/tls wraps net.Conn directly).
//
// # Frames
//
// A frame is a 4-byte big-endian length and that many bytes:
//
//	format        1 byte, 0xB2
//	kind          uvarint length, then the kind string
//	auth          uvarint length, then the bearer token
//	ID            8 bytes, big-endian
//	TimeoutNanos  8 bytes, big-endian
//	TraceID       8 bytes, big-endian
//	SpanID        8 bytes, big-endian
//	flags         1 byte: bit 0 TraceSampled, other bits zero
//	payload       the rest of the frame
//
// The hot payloads (SearchReq, SearchResp, UpdateReq, GetReq, GetResp, Ack
// and ReplRecords) have binary codecs over the packed code words (see
// codec.go); the control kinds carry gob. A frame whose format byte is not
// 0xB2 (a gob-framed peer, say) is ErrMalformed.
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
	"sync"
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
// encoding of the kind's payload struct.
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
// string, so clients match on a stable code instead of message text.
const (
	// ErrCodeUnspecified is the zero value: an error with no machine-
	// readable classification.
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
	// router's health probe reads them to prefer caught-up replicas.
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
	// Ack acknowledges a mutation, and is the payload of error replies;
	// Err is empty on success. Code classifies the error (ErrCode*
	// constants) and RetryAfterNanos, when positive, hints when a rejected
	// request may be retried.
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

// NewEnvelope encodes payload into an envelope carrying the given request
// ID and relative deadline (0 = none): with its binary codec when it has
// one, as gob otherwise. payload must not be a nil pointer.
func NewEnvelope(kind, authToken string, id uint64, timeout time.Duration, payload interface{}) (*Envelope, error) {
	var data []byte
	switch p := payload.(type) {
	case nil:
	case binaryEncoder:
		// Encode into a pooled buffer, then copy out exactly once.
		bp := framePool.Get().(*[]byte)
		b, err := p.appendBinary((*bp)[:0])
		if err == nil {
			data = append([]byte(nil), b...)
		}
		putFrameBuffer(bp, b)
		if err != nil {
			return nil, fmt.Errorf("wire: encode %s payload: %w", kind, err)
		}
	default:
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(payload); err != nil {
			return nil, fmt.Errorf("wire: encode %s payload: %w", kind, err)
		}
		data = body.Bytes()
	}
	return &Envelope{
		Kind:         kind,
		Auth:         authToken,
		ID:           id,
		TimeoutNanos: int64(timeout),
		Data:         data,
	}, nil
}

// frameFormat opens every frame. It can never be the first byte of a gob
// stream (a gob message length is below 0x80 or at least 0xF8), so a
// gob-framed peer fails on its first frame.
const frameFormat = 0xB2

// flagSampled is the TraceSampled bit of the header flags.
const flagSampled = 1

// framePool recycles encode buffers: NewEnvelope appends a binary payload
// into one, and WriteEnvelope assembles the length prefix, header and
// payload in one so each frame costs one Write.
var framePool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

// maxPooledFrame caps the buffers framePool keeps, so one large frame does
// not pin its buffer for the life of the process.
const maxPooledFrame = 1 << 20

// WriteEnvelope writes env as one length-prefixed frame, in a single Write,
// and returns the number of bytes written so callers can account transfer
// costs.
func WriteEnvelope(w io.Writer, env *Envelope) (int, error) {
	if len(env.Data) > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	bp := framePool.Get().(*[]byte)
	frame := appendFrame((*bp)[:0], env)
	n, err := 0, error(ErrFrameTooLarge)
	if len(frame)-4 <= MaxFrameSize {
		if n, err = w.Write(frame); err != nil {
			n, err = 0, fmt.Errorf("wire: write %s frame: %w", env.Kind, err)
		}
	}
	putFrameBuffer(bp, frame)
	return n, err
}

// putFrameBuffer returns a buffer grown from *bp to framePool, unless it
// grew past maxPooledFrame.
func putFrameBuffer(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledFrame {
		*bp = b[:0]
		framePool.Put(bp)
	}
}

// appendFrame appends env as one frame: length prefix, header, payload.
func appendFrame(b []byte, env *Envelope) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, frameFormat)
	b = appendField(b, env.Kind)
	b = appendField(b, env.Auth)
	b = binary.BigEndian.AppendUint64(b, env.ID)
	b = binary.BigEndian.AppendUint64(b, uint64(env.TimeoutNanos))
	b = binary.BigEndian.AppendUint64(b, env.TraceID)
	b = binary.BigEndian.AppendUint64(b, env.SpanID)
	var flags byte
	if env.TraceSampled {
		flags |= flagSampled
	}
	b = append(b, flags)
	b = append(b, env.Data...)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// ReadFrame reads one envelope. It returns the envelope, its size on the
// wire, and any error (io.EOF on clean shutdown). The envelope's Data
// aliases a buffer owned by the envelope. Callers on a socket pass a
// bufio.Reader, so the length prefix and a small frame cost one read.
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
	env, err := parseFrame(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: decode envelope: %v", ErrMalformed, err)
	}
	return env, 4 + int(size), nil
}

// knownKinds interns kind strings, so reading a frame of a known kind does
// not allocate its Kind.
var knownKinds = func() map[string]string {
	m := make(map[string]string)
	for _, k := range []string{
		KindCreateRepo, KindUpdate, KindRemove, KindSearch, KindGet, KindAck,
		KindSearchResp, KindGetResp, KindError, KindHello, KindHelloResp,
		KindCancel, KindTrainStart, KindTrainStatus, KindTrainWait,
		KindTrainJobResp, KindTraceGet, KindTraceResp, KindReplSubscribe,
		KindReplRecords, KindReplAck,
	} {
		m[k] = k
	}
	return m
}()

// parseFrame decodes the header of one frame body; the payload aliases b.
func parseFrame(b []byte) (*Envelope, error) {
	if len(b) == 0 || b[0] != frameFormat {
		return nil, errors.New("unknown frame format")
	}
	d := decoder{b: b[1:]}
	kindBytes := d.field()
	kind, ok := knownKinds[string(kindBytes)]
	if !ok {
		kind = string(kindBytes)
	}
	env := &Envelope{Kind: kind, Auth: d.str()}
	env.ID = d.u64()
	env.TimeoutNanos = int64(d.u64())
	env.TraceID = d.u64()
	env.SpanID = d.u64()
	flags := d.take(1)
	if d.err != nil {
		return nil, d.err
	}
	if flags[0]&^flagSampled != 0 {
		return nil, errFlags
	}
	env.TraceSampled = flags[0]&flagSampled != 0
	if len(d.b) > 0 {
		env.Data = d.b
	}
	return env, nil
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

// Decode unpacks the envelope payload into v, with v's binary codec when
// it has one and as gob otherwise. A payload that does not decode is
// ErrMalformed.
func (e *Envelope) Decode(v interface{}) error {
	var err error
	if p, ok := v.(binaryDecoder); ok {
		d := decoder{b: e.Data}
		p.decodeBinary(&d)
		err = d.finish()
	} else {
		err = gob.NewDecoder(bytes.NewReader(e.Data)).Decode(v)
	}
	if err != nil {
		return fmt.Errorf("%w: decode %s payload: %v", ErrMalformed, e.Kind, err)
	}
	return nil
}

// RepoID returns the repository a search, get or update frame addresses,
// read from the leading field of its payload without decoding the rest, so
// a router can place the request. It returns "" for other kinds and for a
// payload too short to hold the field.
func (e *Envelope) RepoID() string {
	switch e.Kind {
	case KindSearch, KindGet, KindUpdate:
	default:
		return ""
	}
	d := decoder{b: e.Data}
	id := d.field()
	if d.err != nil {
		return ""
	}
	return string(id)
}
