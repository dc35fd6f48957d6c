// Command kv runs one replica of the replicated key-value store over TCP,
// or a client REPL against a set of replicas.
//
// Replica (one per process; consensus addresses shared by all, client port
// is consensus port + 1000):
//
//	kv -id 0 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 -f 1 -e 1 \
//	   -data-dir /var/lib/kv0
//
// With -data-dir nothing the replica says leaves the process before the
// records it depends on are fsynced; there is no policy to choose. With
// -groups N the process hosts N consensus groups sharing one transport,
// WAL, and fsync stream; keys hash-route across groups transparently (see
// docs/SHARDING.md). A data directory is in one binary format
// (docs/DURABILITY.md); one written by a JSON-era build is refused.
//
// Client (reads commands from stdin, PUT/GET/GETL/DEL/STATS/INFO, fails over
// between proxies; speaks the multiplexed session protocol):
//
//	kv -connect 127.0.0.1:8100,127.0.0.1:8101,127.0.0.1:8102
//	> PUT city madrid
//	OK
//	> GET city
//	VAL madrid
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/consensus"
	"repro/internal/debugsrv"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kv:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id      = flag.Int("id", -1, "replica id (replica mode)")
		peers   = flag.String("peers", "", "comma-separated consensus addresses, index = id")
		groups  = flag.Int("groups", 1, "consensus groups hosted per process; keys hash-route across groups, all groups share one transport, WAL, and fsync stream")
		fFlag   = flag.Int("f", 1, "resilience threshold f")
		eFlag   = flag.Int("e", 1, "fast threshold e")
		tickMS  = flag.Int("tick", 5, "milliseconds per protocol tick (Δ = 10 ticks)")
		stats   = flag.Duration("stats", 30*time.Second, "period between transport stats lines (0 disables)")
		connect = flag.String("connect", "", "client mode: comma-separated client addresses")
		dataDir = flag.String("data-dir", "", "durability directory (a WAL, snapshots journaled in it), fsynced before anything leaves the process; empty runs in-memory")
		snapEv  = flag.Int("snap-every", 64, "applied commands between snapshots (<0 disables)")
		pprof   = flag.String("pprof", "", "serve net/http/pprof and expvar debug endpoints on this address (e.g. 127.0.0.1:6060)")
		leases  = flag.Bool("leases", false, "enable replicated leader leases: the stable Ω leader of each group auto-acquires a lease and serves GETL from local state (docs/LEASES.md)")
		leaseD  = flag.Duration("lease-dur", 2*time.Second, "lease duration under -leases")
		leaseE  = flag.Duration("lease-eps", 50*time.Millisecond, "lease clock-skew margin ε under -leases (2ε must be < -lease-dur)")
	)
	flag.Parse()

	if *connect != "" {
		return clientMain(strings.Split(*connect, ","))
	}
	if *id < 0 || *peers == "" {
		return fmt.Errorf("replica mode needs -id and -peers; client mode needs -connect")
	}
	var dur *shard.Durability
	if *dataDir != "" {
		dur = &shard.Durability{Dir: *dataDir, SnapshotEvery: *snapEv}
	}
	var lo *smr.LeaseOptions
	if *leases {
		lo = &smr.LeaseOptions{Duration: *leaseD, Epsilon: *leaseE, AutoGrant: true}
	}
	return replicaMain(*id, strings.Split(*peers, ","), *fFlag, *eFlag, *groups, *tickMS, *stats, *pprof, dur, lo)
}

// newRuntime builds the serving stack. Replica mode always runs the
// multi-group runtime — with -groups 1 it hosts a single group.
func newRuntime(cfg consensus.Config, groups, tickMS int, dur *shard.Durability, lo *smr.LeaseOptions) (*shard.Runtime, error) {
	return shard.New(shard.Options{
		Groups:     groups,
		Config:     cfg,
		Tick:       time.Duration(tickMS) * time.Millisecond,
		Durability: dur,
		Leases:     lo,
	})
}

func replicaMain(id int, peerList []string, f, e, groups, tickMS int, statsEvery time.Duration, pprofAddr string, dur *shard.Durability, lo *smr.LeaseOptions) error {
	n := len(peerList)
	cfg := consensus.Config{ID: consensus.ProcessID(id), N: n, F: f, E: e, Delta: 10}
	rt, err := newRuntime(cfg, groups, tickMS, dur, lo)
	if err != nil {
		return err
	}
	defer rt.Close()

	if dur != nil {
		recs, _ := rt.Recovery()
		for g, rec := range recs {
			if rec.Recovered {
				fmt.Printf("recovered g%d: snapshot applied=%d, wal records=%d, torn tail=%t, applied=%d, open slots=%d\n",
					g, rec.SnapshotApplied, rec.WalRecords, rec.TornTail, rec.Applied, rec.OpenSlots)
			}
		}
	}

	codec := consensus.NewCodec()
	shard.RegisterMessages(codec)
	addrs := make(map[consensus.ProcessID]string, n)
	for i, a := range peerList {
		addrs[consensus.ProcessID(i)] = strings.TrimSpace(a)
	}
	tr, err := transport.NewTCP(cfg.ID, addrs, codec, rt.Handler())
	if err != nil {
		return err
	}
	rt.BindTransport(tr)
	rt.Start()

	clientAddr, err := shiftPort(addrs[cfg.ID], 1000)
	if err != nil {
		return err
	}
	srv, err := smr.NewBackendServer(rt, clientAddr, 30*time.Second)
	if err != nil {
		return err
	}
	defer srv.Close()

	fmt.Printf("replica %s up: consensus %s, clients %s, n=%d f=%d e=%d groups=%d\n",
		cfg.ID, addrs[cfg.ID], srv.Addr(), n, f, e, groups)

	if pprofAddr != "" {
		dbgAddr, err := debugsrv.Serve(pprofAddr, map[string]func() any{
			"kv.transport": func() any { return rt.TransportStats() },
			"kv.replica":   func() any { return rt.Info() },
			"kv.batch": func() any {
				stats := make([]smr.BatchStats, rt.Groups())
				for g := range stats {
					stats[g] = rt.Group(g).BatchStats()
				}
				return stats
			},
			"kv.lease": func() any {
				stats := make([]smr.LeaseStats, rt.Groups())
				for g := range stats {
					stats[g] = rt.Group(g).LeaseStats()
				}
				return stats
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
				fmt.Printf("transport: %s\n", rt.TransportStats())
				fmt.Printf("info: %s\n", rt.Info())
			}
		}()
	}

	// SIGTERM and SIGINT both shut down gracefully: the deferred Close
	// syncs and closes the WAL, so a restart recovers without taking the
	// torn-tail path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("transport (final): %s\n", rt.TransportStats())
	fmt.Printf("info (final): %s\n", rt.Info())
	fmt.Println("shutting down")
	return nil
}

// shiftPort adds delta to the port of a host:port address.
func shiftPort(addr string, delta int) (string, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("bad address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("bad port %q: %w", portStr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(port+delta)), nil
}

func clientMain(addrs []string) error {
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	client, err := smr.NewSessionClient(addrs, smr.SessionOptions{
		Timeout:      30 * time.Second,
		PreferLeader: true,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	// Force the handshake so the leader hint is reportable.
	if err := client.Ping(); err != nil {
		return err
	}
	fmt.Printf("connected proxy set: %v (session protocol, leader hint r%d)\n", addrs, client.LeaderHint())

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 64*1024), smr.MaxLineBytes)
	fmt.Print("> ")
	for scanner.Scan() {
		line := strings.TrimLeft(strings.TrimRight(scanner.Text(), "\r"), " ")
		if line == "" {
			fmt.Print("> ")
			continue
		}
		// Split verb and key on single spaces only: a PUT value is
		// everything after the second space, verbatim — joining
		// whitespace-split fields would silently collapse runs of spaces
		// inside the value.
		verb, rest, _ := strings.Cut(line, " ")
		switch strings.ToUpper(verb) {
		case "QUIT", "EXIT":
			return nil
		case "GET", "GETL":
			if rest == "" || strings.Contains(rest, " ") {
				fmt.Printf("usage: %s <key>\n", strings.ToUpper(verb))
				break
			}
			if strings.ToUpper(verb) == "GETL" {
				fmt.Println(renderGet(client.GetLinearizable(rest)))
			} else {
				fmt.Println(renderGet(client.Get(rest)))
			}
		case "PUT":
			key, val, ok := strings.Cut(rest, " ")
			if key == "" || !ok {
				fmt.Println("usage: PUT <key> <value>")
				break
			}
			if err := client.Put(key, val); err != nil {
				fmt.Println("ERR", err)
			} else {
				fmt.Println("OK")
			}
		case "DEL":
			if rest == "" || strings.Contains(rest, " ") {
				fmt.Println("usage: DEL <key>")
				break
			}
			if err := client.Delete(rest); err != nil {
				fmt.Println("ERR", err)
			} else {
				fmt.Println("OK")
			}
		case "STATS":
			line, err := client.Stats()
			if err != nil {
				fmt.Println("ERR", err)
			} else {
				fmt.Println("STATS", line)
			}
		case "INFO":
			line, err := client.Info()
			if err != nil {
				fmt.Println("ERR", err)
			} else {
				fmt.Println("INFO", line)
			}
		default:
			fmt.Println("commands: PUT GET GETL DEL STATS INFO QUIT")
		}
		fmt.Print("> ")
	}
	return nil
}

// renderGet formats a GET outcome for the REPL. A missing key is an
// expected outcome, not an error, and is recognised by sentinel — the
// client wraps its errors, so only errors.Is is reliable (matching on the
// message text broke the moment the client's wording changed).
func renderGet(v string, err error) string {
	switch {
	case err == nil:
		return "VAL " + v
	case errors.Is(err, smr.ErrNotFound):
		return "NONE"
	default:
		return "ERR " + err.Error()
	}
}
