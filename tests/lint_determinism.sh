#!/bin/sh
# Determinism lint: the simulation must be a pure function of its seeds.
# Any wall-clock read or unseeded randomness in src/ breaks replayability
# (chaos_repro --seed=N, the determinism sweeps) — so ban the APIs
# outright. Seeded randomness goes through common/random.h (Rng).
#
# Usage: lint_determinism.sh [SRC_DIR]   (default: <repo>/src)

set -u

src_dir="${1:-$(dirname "$0")/../src}"
if [ ! -d "$src_dir" ]; then
  echo "lint_determinism: source dir not found: $src_dir" >&2
  exit 2
fi

status=0
for pattern in 'system_clock' 'steady_clock' '[^_[:alnum:]]rand\(' \
               'random_device'; do
  hits=$(grep -rnE "$pattern" "$src_dir" \
           --include='*.cc' --include='*.h' --include='*.cpp')
  if [ -n "$hits" ]; then
    echo "lint_determinism: forbidden nondeterminism source '$pattern':"
    echo "$hits"
    status=1
  fi
done

# Coordinator-failover replication (D14): the mirror log is replayed on
# the standby and fingerprinted, and the takeover reconciles queries in
# iteration order — any unordered container in these files could leak a
# hash-order dependence into replicated state. std::map/std::set only.
for f in "$src_dir"/dqp/mirror_log.h "$src_dir"/dqp/mirror_log.cc \
         "$src_dir"/dqp/standby.h "$src_dir"/dqp/standby.cc \
         "$src_dir"/dqp/failover_messages.h; do
  [ -f "$f" ] || continue
  hits=$(grep -nE 'unordered_(map|set)' "$f")
  if [ -n "$hits" ]; then
    echo "lint_determinism: unordered container in replicated-state file $f:"
    echo "$hits"
    status=1
  fi
done

# Event kernel: virtual time is the only clock. A wall-clock read, a
# sleep or unseeded randomness in the simulator would make event order
# depend on the host.
for f in "$src_dir"/sim/simulator.h "$src_dir"/sim/simulator.cc; do
  [ -f "$f" ] || continue
  hits=$(grep -nE 'std::this_thread|sleep_for|sleep_until|::time\(|gettimeofday|clock_gettime|[^_[:alnum:]]rand\(' "$f")
  if [ -n "$hits" ]; then
    echo "lint_determinism: wall-clock/sleep/rand in event-kernel file $f:"
    echo "$hits"
    status=1
  fi
done

# Single-threaded engine (DESIGN.md D1): tuple and value refcounts are
# plain integers and the tuple block pool has no lock, which is only
# correct while nothing in src/ starts a thread. Ban thread creation and
# atomics outright; <mutex> stays allowed for the process-wide logger and
# string interner.
hits=$(grep -rnE 'std::(thread|jthread|async|this_thread|atomic)|__atomic_|#include[[:space:]]*<(thread|atomic)>' \
         "$src_dir" --include='*.cc' --include='*.h' --include='*.cpp')
if [ -n "$hits" ]; then
  echo "lint_determinism: threads or atomics in the single-threaded engine:"
  echo "$hits"
  status=1
fi

# Multi-tenant workload + admission control (D16): the arrival schedule
# and every admission decision must replay identically from the config
# seed — the tenant bench compares whole rendered reports byte-for-byte.
# Ban wall-clock reads, unseeded randomness and unordered containers in
# the driver and controller outright.
for f in "$src_dir"/workload/driver.h "$src_dir"/workload/driver.cc \
         "$src_dir"/dqp/admission.h "$src_dir"/dqp/admission.cc; do
  [ -f "$f" ] || continue
  hits=$(grep -nE '::time\(|gettimeofday|clock_gettime|system_clock|steady_clock|[^_[:alnum:]]rand\(|random_device|mt19937|unordered_(map|set)' "$f")
  if [ -n "$hits" ]; then
    echo "lint_determinism: nondeterminism source in workload/admission file $f:"
    echo "$hits"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "lint_determinism: OK (no wall-clock, unseeded randomness or threads in src/)"
fi
exit "$status"
