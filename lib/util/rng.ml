(* Deterministic splitmix64 PRNG.

   Every randomized component of the system (gadget diversification, P1 array
   population, RandomFuns generation, solver search) takes an explicit [t] so
   that experiments are reproducible from a seed, mirroring the paper's use of
   per-program obfuscation-time choices. *)

(* The state lives in 8 bytes rather than a [mutable int64] field: a
   mutable field holds a boxed int64, so every step would allocate, while
   [Bytes.get/set_int64_ne] read and write it unboxed. *)
type t = bytes

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let golden = 0x9E3779B97F4A7C15L

(* Core splitmix64 step: returns a full 64-bit value.  Inlined into [int],
   the hottest draw of chain crafting, so that no int64 crosses a call
   there and none is boxed. *)
let[@inline] next64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform int in [0, bound). [bound] must be positive. *)
let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

(* Uniform int in [lo, hi] inclusive. *)
let range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

(* Pick a uniformly random element of a non-empty list. *)
let choose t xs =
  match xs with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth xs (int t (List.length xs))

(* Fisher-Yates shuffle (returns a new list). *)
let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* Derive an independent stream, e.g. one per obfuscated function. *)
let split t = of_state (next64 t)

(* Derive a stream from a master seed and a stable string key (a job's
   cache key, a table cell id, ...).  Unlike [split], the result does not
   depend on how many draws preceded it, so a parallel worker gets exactly
   the stream a serial run would — randomness keyed by *what* the job is,
   not *when* it runs. *)
let of_key ~seed key =
  let d = Digest.string (Printf.sprintf "%d\x00%s" seed key) in
  let s = ref 0L in
  for i = 0 to 7 do
    s := Int64.logor (Int64.shift_left !s 8) (Int64.of_int (Char.code d.[i]))
  done;
  of_state !s
