(* Digest-routed shard array over [Jobs.Cache].

   One flat cache directory serves a single process fine, but a daemon
   whose forked helpers and sibling daemons share a cache dir contends on
   directory operations, and pruning a million-entry flat dir stats every
   file to evict one.  Sharding by key digest bounds both: each shard is an
   independent [Jobs.Cache] directory (`shard-00/` ... `shard-NN/`) and a
   key's shard is a pure function of its MD5, so any process computing the
   same route reads the same entry.  The shard count is a layout property:
   changing it re-routes keys, which is just a cold cache, not corruption —
   the executable-digest salt inside each [Jobs.Cache] already invalidates
   across builds anyway. *)

type t = {
  sc_dir : string;
  sc_shards : Jobs.Cache.t array;
}

let shard_name i = Printf.sprintf "shard-%02d" i

let create ?salt ?(shards = 4) ~dir () =
  let n = max 1 shards in
  { sc_dir = dir;
    sc_shards =
      Array.init n (fun i ->
          Jobs.Cache.create ?salt ~dir:(Filename.concat dir (shard_name i)) ()) }

(* Route on the first two digest bytes: uniform for MD5, and independent of
   the per-shard content address (which re-digests with the salt). *)
let shard_of t k =
  let d = Digest.string k in
  ((Char.code d.[0] lsl 8) lor Char.code d.[1]) mod Array.length t.sc_shards

let find t k = Jobs.Cache.find t.sc_shards.(shard_of t k) k
let store t k v = Jobs.Cache.store t.sc_shards.(shard_of t k) k v

let sum f t = Array.fold_left (fun acc c -> acc + f c) 0 t.sc_shards

let size_bytes t = sum Jobs.Cache.size_bytes t

let entries t =
  sum
    (fun c ->
       let dir = c.Jobs.Cache.dir in
       if Sys.file_exists dir && Sys.is_directory dir then
         Array.fold_left
           (fun acc f ->
              if Sys.is_directory (Filename.concat dir f) then acc else acc + 1)
           0 (Sys.readdir dir)
       else 0)
    t

(* Evict down to [max_bytes] total, budgeted evenly across shards.  An even
   split (rather than a global LRU merge) keeps pruning O(shard) and is
   within one shard-imbalance of the same outcome for digest-routed keys. *)
let prune t ~max_bytes =
  let per_shard = max_bytes / Array.length t.sc_shards in
  Array.fold_left
    (fun (n, b) c ->
       let dn, db = Jobs.Cache.prune ~max_bytes:per_shard c in
       (n + dn, b + db))
    (0, 0) t.sc_shards
