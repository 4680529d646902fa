package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
)

// API is the HTTP surface over a Server — the pimsimd wire protocol:
//
//	POST   /jobs             submit a JobSpec (the whole body: only
//	                         whitespace may follow it); 202 + Status on
//	                         admission, 400 bad spec or data after it,
//	                         413 body over maxSpecBytes, 429 queue full,
//	                         503 shutting down
//	GET    /jobs             list jobs in submission order
//	GET    /jobs/{id}        poll one job's Status
//	GET    /jobs/{id}/result the job's result bytes (text/plain) once done;
//	                         409 while still queued/running
//	GET    /jobs/{id}/stream incremental results as JSON lines: one record
//	                         per completed chunk as it lands, then a final
//	                         done record with the terminal state
//	DELETE /jobs/{id}        cancel a job
//	GET    /metrics          live registry snapshot (same schema as the
//	                         obs server pimsim -serve-metrics exposes)
//	GET    /healthz          liveness
//
// It reuses obs.Server's lifecycle discipline: every handler is counted,
// and Close drains them after tearing down connections, so shutdown never
// strands a handler goroutine mid-write.
type API struct {
	s        *Server
	addr     net.Addr
	listener net.Listener
	srv      *http.Server
	done     chan struct{}
	handlers sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	serveErr error
}

// ServeAPI binds addr (host:port; port 0 picks a free port) and serves s.
// The listener is bound synchronously: a non-error return means the API
// is reachable at Addr().
func ServeAPI(addr string, s *Server) (*API, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: api listener: %w", err)
	}
	a := &API{
		s:        s,
		addr:     ln.Addr(),
		listener: ln,
		done:     make(chan struct{}),
	}
	a.srv = &http.Server{Handler: a.tracked(a.mux())}
	go func() {
		defer close(a.done)
		err := a.srv.Serve(ln)
		if err != nil && err != http.ErrServerClosed {
			a.mu.Lock()
			a.serveErr = err
			a.mu.Unlock()
		}
	}()
	return a, nil
}

// Addr returns the API's resolved listen address.
func (a *API) Addr() string {
	if a == nil {
		return ""
	}
	return a.addr.String()
}

// Close stops the listener and drains in-flight handlers. It does not
// close the underlying Server — callers close the API first (no new
// requests), then the Server (drain jobs).
func (a *API) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	err := a.srv.Close()
	<-a.done
	a.handlers.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	if err == nil {
		err = a.serveErr
	}
	return err
}

func (a *API) tracked(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.handlers.Add(1)
		defer a.handlers.Done()
		h.ServeHTTP(w, r)
	})
}

func (a *API) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", a.handleSubmit)
	mux.HandleFunc("GET /jobs", a.handleList)
	mux.HandleFunc("GET /jobs/{id}", a.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", a.handleResult)
	mux.HandleFunc("GET /jobs/{id}/stream", a.handleStream)
	mux.HandleFunc("DELETE /jobs/{id}", a.handleCancel)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Headers are out; an encode error means the client went away.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSpecBytes bounds a POST /jobs body. A JobSpec is a few hundred
// bytes; the bound keeps a hostile or broken client from making the
// decoder buffer an unbounded body.
const maxSpecBytes = 1 << 20

// decodeSpec reads a JobSpec that must be the whole of r: unknown fields,
// or anything but whitespace after the spec, are errors.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var sp JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the job spec")
		}
	}
	return sp, err
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decoding spec: %w", err))
		return
	}
	j, err := a.s.Submit(sp)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": a.s.Jobs()})
}

// job resolves the {id} path value, writing the 404 on failure.
func (a *API) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := a.s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := a.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (a *API) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	out, err := j.Result()
	if err != nil {
		st, _, _, _ := j.snapshot(0)
		code := http.StatusConflict // still queued/running
		if st == StateFailed || st == StateCanceled {
			code = http.StatusInternalServerError
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// streamRecord is one line of a /stream response: a chunk as it
// completes, or the final record (done=true) carrying the terminal state.
type streamRecord struct {
	Chunk *Chunk   `json:"chunk,omitempty"`
	Done  bool     `json:"done,omitempty"`
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`
}

func (a *API) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seq := 0
	for {
		st, chunks, jerr, updated := j.snapshot(seq)
		for i := range chunks {
			if err := enc.Encode(streamRecord{Chunk: &chunks[i]}); err != nil {
				return // client went away
			}
			seq++
		}
		if st == StateDone || st == StateFailed || st == StateCanceled {
			rec := streamRecord{Done: true, State: st}
			if jerr != nil {
				rec.Error = jerr.Error()
			}
			_ = enc.Encode(rec)
			if fl != nil {
				fl.Flush()
			}
			return
		}
		if fl != nil {
			fl.Flush()
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := a.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := a.s.Registry()
	if reg == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: no metrics registry attached"))
		return
	}
	writeJSON(w, http.StatusOK, reg.Snapshot())
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
