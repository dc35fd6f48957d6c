// Command twostep runs one process of a live TCP consensus cluster, or a
// client that submits a proposal to a cluster member (its proxy) and waits
// for the decision.
//
// Server (one per process, n addresses shared by all):
//
//	twostep -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -f 1 -e 1
//
// The server also listens for clients on the consensus port + 1000 with a
// single-line protocol: "PROPOSE <key> <data>\n" → "DECIDED <key> <data>\n".
//
// Client:
//
//	twostep -propose "42 hello" -proxy 127.0.0.1:8000
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/debugsrv"
	"repro/internal/node"
	"repro/internal/omega"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "twostep:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id      = flag.Int("id", -1, "process id (server mode)")
		peers   = flag.String("peers", "", "comma-separated consensus addresses, index = id")
		fFlag   = flag.Int("f", 1, "resilience threshold f")
		eFlag   = flag.Int("e", 1, "fast threshold e")
		object  = flag.Bool("object", true, "object mode (propose-driven); false = task mode")
		tickMS  = flag.Int("tick", 5, "milliseconds per protocol tick (Δ = 10 ticks)")
		stats   = flag.Duration("stats", 30*time.Second, "period between transport stats lines (0 disables)")
		propose = flag.String("propose", "", `client mode: "<key> [data]" to propose`)
		proxy   = flag.String("proxy", "", "client mode: proxy's client address")
		timeout = flag.Duration("timeout", 30*time.Second, "client decision timeout")
		dataDir = flag.String("data-dir", "", "durability directory (journals ballot/vote state); empty runs in-memory")
		fsync   = flag.String("fsync", "always", "journal fsync policy: always | interval | never")
		pprof   = flag.String("pprof", "", "serve net/http/pprof and expvar debug endpoints on this address (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	if *propose != "" {
		return clientMain(*proxy, *propose, *timeout)
	}
	if *id < 0 || *peers == "" {
		return fmt.Errorf("server mode needs -id and -peers; client mode needs -propose and -proxy")
	}
	return serverMain(*id, strings.Split(*peers, ","), *fFlag, *eFlag, *object, *tickMS, *stats, *dataDir, *fsync, *pprof)
}

func serverMain(id int, peerList []string, f, e int, object bool, tickMS int, statsEvery time.Duration, dataDir, fsync, pprofAddr string) error {
	n := len(peerList)
	cfg := consensus.Config{ID: consensus.ProcessID(id), N: n, F: f, E: e, Delta: 10}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if tickMS <= 0 {
		// A zero tick makes every protocol timer fire at once, forever.
		return fmt.Errorf("-tick must be positive, got %d", tickMS)
	}
	mode := core.ModeTask
	if object {
		mode = core.ModeObject
	}

	codec := consensus.NewCodec()
	core.RegisterMessages(codec)
	omega.RegisterMessages(codec)

	det := omega.New(cfg, 0)
	proto, err := core.New(cfg, mode, det)
	if err != nil {
		return err
	}
	host := node.New(n, nil, time.Duration(tickMS)*time.Millisecond, det, proto)

	var journal *wal.WAL // nil when running in-memory; read by the debug vars
	if dataDir != "" {
		// Journal the core instance's durable state (ballot, vote, decided
		// value) so a restarted process re-enters the protocol with its
		// promises intact instead of as an amnesiac fresh node.
		policy, err := wal.ParseSyncPolicy(fsync)
		if err != nil {
			return err
		}
		w, winfo, err := wal.Open(filepath.Join(dataDir, "wal"), wal.Options{Policy: policy})
		if err != nil {
			return err
		}
		journal = w
		var last []byte
		if _, err := w.Replay(0, func(_ uint64, p []byte) error {
			last = append(last[:0], p...)
			return nil
		}); err != nil {
			w.Close()
			return err
		}
		if last != nil {
			if err := proto.RestoreState(last); err != nil {
				w.Close()
				return err
			}
			fmt.Printf("recovered: state=%+v (torn tail=%t)\n", proto.Snapshot(), winfo.TornTail)
		}
		persisted := proto.Snapshot()
		host.SetPersist(func() error {
			st := proto.Snapshot()
			if st == persisted {
				return nil
			}
			if _, err := w.Append(proto.AppendState(nil)); err != nil {
				return err
			}
			persisted = st
			return nil
		}, w.Close)
	}

	addrs := make(map[consensus.ProcessID]string, n)
	for i, a := range peerList {
		addrs[consensus.ProcessID(i)] = strings.TrimSpace(a)
	}
	tr, err := transport.NewTCP(cfg.ID, addrs, codec, host.Handle)
	if err != nil {
		return err
	}
	host.BindTransport(tr)
	defer host.Close()
	host.Start()

	clientAddr, err := clientAddrFor(addrs[cfg.ID])
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", clientAddr)
	if err != nil {
		return fmt.Errorf("client listener: %w", err)
	}
	defer ln.Close()
	fmt.Printf("process %s up: consensus %s, clients %s, n=%d f=%d e=%d mode=%s\n",
		cfg.ID, addrs[cfg.ID], clientAddr, n, f, e, mode)

	if pprofAddr != "" {
		dbgAddr, err := debugsrv.Serve(pprofAddr, map[string]func() any{
			"twostep.transport": func() any { return tr.Stats() },
			"twostep.wal": func() any {
				if journal == nil {
					return nil
				}
				return journal.Stats()
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("debug: pprof and expvar on http://%s/debug/\n", dbgAddr)
	}

	if statsEvery > 0 {
		ticker := time.NewTicker(statsEvery)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				fmt.Printf("transport: %s\n", tr.Stats())
			}
		}()
	}

	// SIGTERM and SIGINT close the client listener; the accept loop then
	// returns and the deferred host.Close syncs and closes the journal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("shutting down")
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil
		}
		go serveClient(conn, host)
	}
}

// clientAddrFor derives the client port (consensus port + 1000).
func clientAddrFor(consensusAddr string) (string, error) {
	host, portStr, err := net.SplitHostPort(consensusAddr)
	if err != nil {
		return "", fmt.Errorf("bad address %q: %w", consensusAddr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("bad port %q: %w", portStr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(port+1000)), nil
}

func serveClient(conn net.Conn, host *node.Host) {
	defer conn.Close()
	scanner := bufio.NewScanner(conn)
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) < 2 || strings.ToUpper(fields[0]) != "PROPOSE" {
			fmt.Fprintf(conn, "ERR usage: PROPOSE <key> [data]\n")
			continue
		}
		key, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(conn, "ERR bad key: %v\n", err)
			continue
		}
		data := ""
		if len(fields) > 2 {
			data = strings.Join(fields[2:], " ")
		}
		host.Propose(consensus.Value{Key: key, Data: data})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		v, err := host.WaitDecision(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(conn, "ERR %v\n", err)
			continue
		}
		fmt.Fprintf(conn, "DECIDED %d %s\n", v.Key, v.Data)
	}
}

func clientMain(proxy, proposal string, timeout time.Duration) error {
	if proxy == "" {
		return fmt.Errorf("client mode needs -proxy")
	}
	conn, err := net.DialTimeout("tcp", proxy, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintf(conn, "PROPOSE %s\n", proposal); err != nil {
		return err
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return err
	}
	fmt.Print(reply)
	return nil
}
