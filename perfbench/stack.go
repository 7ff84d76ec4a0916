package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"numaio/internal/fleet"
	"numaio/internal/service"
)

// stack is the system under test: one numaiod replica and, for gateway
// workloads, a numaiogw in front of it, both serving loopback HTTP from
// this process.
type stack struct {
	svc     *service.Server
	gw      *fleet.Gateway
	entry   string // base URL the clients target
	servers []*http.Server
	served  []chan error
	// stopHealth stops the gateway's health loop; healthDone closes when
	// the loop has returned.
	stopHealth context.CancelFunc
	healthDone chan struct{}
	// accepts counts connections the replica accepted; only the traced
	// run wraps the replica's listener to count them.
	accepts *atomic.Int64
}

// newReplica builds the service exactly as `numaiod -quiet` does with
// every other flag at its default (see cmd/numaiod).
func newReplica() *service.Server {
	return service.New(service.Config{
		Workers:          4,
		CacheEntries:     64,
		CacheTTL:         time.Hour,
		RespCacheEntries: 1024,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		RequestTimeout:   30 * time.Second,
		Retries:          2,
		RetryBackoff:     100 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  30 * time.Second,
	})
}

// newGateway builds the gateway exactly as `numaiogw -quiet -replicas URL`
// does with every other flag at its default (see cmd/numaiogw).
func newGateway(replicaURL string) (*fleet.Gateway, error) {
	return fleet.NewGateway(fleet.GatewayConfig{
		Fleet:            &fleet.Config{Replicas: []fleet.Replica{{Name: "r0", URL: replicaURL}}},
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		Client:           &http.Client{Timeout: 30 * time.Second},
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
		HealthInterval:   2 * time.Second,
	})
}

// startStack boots the replica (and gateway) on ephemeral loopback ports.
func startStack(gateway, countAccepts bool) (*stack, error) {
	s := &stack{svc: newReplica()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if countAccepts {
		s.accepts = new(atomic.Int64)
		ln = countingListener{ln, s.accepts}
	}
	s.entry = "http://" + ln.Addr().String()
	s.serve(ln, s.svc.Handler())
	if !gateway {
		return s, nil
	}
	if s.gw, err = newGateway(s.entry); err != nil {
		s.close()
		return nil, err
	}
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s.stopHealth, s.healthDone = stop, make(chan struct{})
	go func() {
		defer close(s.healthDone)
		s.gw.Run(ctx)
	}()
	s.entry = "http://" + gln.Addr().String()
	s.serve(gln, s.gw.Handler())
	return s, nil
}

func (s *stack) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()
	s.servers = append(s.servers, srv)
	s.served = append(s.served, done)
}

// close shuts the daemons down front to back, the way SIGTERM does, and
// waits for every goroutine the stack started.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.stopHealth != nil {
		s.stopHealth()
		<-s.healthDone
	}
	var errs []error
	for i := len(s.servers) - 1; i >= 0; i-- {
		errs = append(errs, s.servers[i].Shutdown(ctx), <-s.served[i])
		if s.gw != nil && i > 0 {
			// The gateway forwards over Go's default transport. Closing
			// its idle connections now keeps the replica's Shutdown from
			// waiting out a dialed-but-unused one (net/http gives a
			// connection with no request 5 s before treating it as idle).
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		}
	}
	errs = append(errs, s.svc.Drain(ctx))
	return errors.Join(errs...)
}

// fill runs set-up's characterizations through the entry daemon.
func (s *stack) fill(c *client, bodies [][]byte) error {
	var buf bytes.Buffer
	for _, b := range bodies {
		buf.Reset()
		status, _, err := c.post(s.entry+"/v1/characterize", b, &buf)
		if err != nil {
			return fmt.Errorf("set-up characterize: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("set-up characterize: status %d: %s", status, firstLine(buf.Bytes()))
		}
	}
	return nil
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// client is the load generator's HTTP client: its own transport holding
// exactly `conns` keep-alive connections, with every dial counted so a
// run can prove its connections never churned.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	dials atomic.Int64
}

func newClient(conns int) *client {
	c := &client{}
	var d net.Dialer
	c.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: c.tr}
	return c
}

// post sends one JSON body and reads the whole response into buf,
// returning the status and the Server-Timing values.
func (c *client) post(url string, body []byte, buf *bytes.Buffer) (int, []string, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header.Values("Server-Timing"), nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	if len(line) > 200 {
		line = line[:200]
	}
	return string(line)
}
