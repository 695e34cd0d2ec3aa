(* MESI-lite shared-L2 coherence cost model.

   The per-CPU kernels simulate private L1s over a shared L2. Rather
   than tracking per-line MESI state across domains (which would
   serialise the parallel epochs), we charge the two first-order
   costs at epoch barriers, where all cross-CPU traffic is delivered:

   - [transfer]: a cache-to-cache line move for data another CPU
     wrote (IPC payloads, shootdown metadata). Models M->S downgrade
     on the producer plus the line fill on the consumer.

   - [epoch]: shared-L2 port contention. Each CPU's extra latency in
     an epoch grows with the product of its own L2 misses and the
     misses of every other CPU in the same epoch — the standard
     first-order queueing approximation, kept in integer arithmetic
     so results are bit-stable across hosts.

   Everything here is deterministic: costs depend only on the miss
   counts and line counts fed in, never on wall-clock interleaving. *)

type t = {
  cpus : int;
  mutable lines_transferred : int;
  mutable transfer_cycles : int;
  mutable contention_cycles : int;
}

(* Cycles to move one dirty line between private caches through the
   shared L2: producer write-back + consumer fill, minus the overlap.
   Comparable to the L2 hit latency the hierarchy already charges. *)
let line_transfer_cost = 44

(* Contention scale: own_misses * other_misses / contention_scale
   extra cycles per epoch. The divisor keeps the penalty second-order
   relative to the miss costs themselves. *)
let contention_scale = 64

let create ~cpus =
  if cpus < 1 then invalid_arg "Coherence.create: cpus must be >= 1";
  { cpus;
    lines_transferred = 0;
    transfer_cycles = 0;
    contention_cycles = 0 }

let transfer t ~lines =
  if lines < 0 then invalid_arg "Coherence.transfer: negative line count";
  let cycles = lines * line_transfer_cost in
  t.lines_transferred <- t.lines_transferred + lines;
  t.transfer_cycles <- t.transfer_cycles + cycles;
  cycles

let epoch t ~l2_misses =
  if Array.length l2_misses <> t.cpus then
    invalid_arg "Coherence.epoch: miss vector length <> cpus";
  let total = Array.fold_left ( + ) 0 l2_misses in
  Array.map
    (fun own ->
       let others = total - own in
       let penalty = own * others / contention_scale in
       t.contention_cycles <- t.contention_cycles + penalty;
       penalty)
    l2_misses

let lines_transferred t = t.lines_transferred
let transfer_cycles t = t.transfer_cycles
let contention_cycles t = t.contention_cycles
