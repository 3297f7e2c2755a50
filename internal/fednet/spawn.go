package fednet

// Local worker spawning: the zero-configuration path where the coordinator
// re-executes its own binary once per core. Any binary whose main (or
// TestMain) calls MaybeRunWorker early can host a federation this way; for
// a real multi-machine deployment, start `modelnet core -join host:port`
// on each machine instead.

import (
	"fmt"
	"os"
	"os/exec"
	"sync/atomic"
	"time"
)

// EnvJoin is the environment variable that turns a process into a worker:
// its value is the coordinator's control-plane address.
const EnvJoin = "MODELNET_FEDNET_JOIN"

// EnvCPUProfile and EnvMemProfile carry a coordinator's -cpuprofile /
// -memprofile paths to the workers it spawns (they inherit its environment);
// each worker writes "<path>.shard<N>" (WorkerOptions.CPUProfile). A process
// that runs several spawned federations gives the second and later ones
// "<path>.fed<K>.shard<N>", so none overwrites an earlier one's files.
const (
	EnvCPUProfile = "MODELNET_CPUPROFILE"
	EnvMemProfile = "MODELNET_MEMPROFILE"
)

// spawnedFederations counts the spawned federations this process has
// started; a federation's count (from 1) is the K in its profile paths.
var spawnedFederations atomic.Int32

// ProfileSpawnedWorkers makes every worker spawned from this process after
// the call write per-shard profiles beside the given paths ("" = none).
func ProfileSpawnedWorkers(cpuPath, memPath string) {
	os.Setenv(EnvCPUProfile, cpuPath)
	os.Setenv(EnvMemProfile, memPath)
}

// spawnedWorker tracks one self-exec'd worker process.
type spawnedWorker struct {
	cmd *exec.Cmd
}

// SpawnWorkers re-executes the current binary n times as workers of this
// process's fed-th spawned federation, joining the coordinator at join.
func SpawnWorkers(n int, join string, fed int) ([]*spawnedWorker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fednet: spawn: %w", err)
	}
	env := append(os.Environ(), EnvJoin+"="+join)
	if fed > 1 { // the first federation keeps the bare paths
		for _, name := range []string{EnvCPUProfile, EnvMemProfile} {
			if path := os.Getenv(name); path != "" {
				env = append(env, fmt.Sprintf("%s=%s.fed%d", name, path, fed))
			}
		}
	}
	var ws []*spawnedWorker
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = env
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			stopWorkers(ws)
			return nil, fmt.Errorf("fednet: spawn worker %d: %w", i, err)
		}
		ws = append(ws, &spawnedWorker{cmd: cmd})
	}
	return ws, nil
}

// waitWorkers reaps spawned workers after a completed run; a nonzero exit
// is an error (the worker also reported it over the control plane, but a
// crash after reporting should not go unnoticed).
func waitWorkers(ws []*spawnedWorker) error {
	var firstErr error
	for _, w := range ws {
		if w.cmd == nil {
			continue
		}
		err := w.cmd.Wait()
		w.cmd = nil
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fednet: worker exited: %w", err)
		}
	}
	return firstErr
}

// stopWorkers kills any spawned workers that are still running (the error
// path; a clean run reaps them in waitWorkers).
func stopWorkers(ws []*spawnedWorker) {
	for _, w := range ws {
		if w.cmd == nil || w.cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(c *exec.Cmd) { _ = c.Wait(); close(done) }(w.cmd)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			_ = w.cmd.Process.Kill()
			<-done
		}
		w.cmd = nil
	}
}
