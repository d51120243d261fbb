(* ROPMEMU-style dynamic multi-path exploration (§III-B2).

   Emulates a ROP-encoded function concretely and looks for instructions
   that read CPU condition flags (the flag-leaking sequences used to encode
   branches, §II-B).  It then re-runs the program flipping the flags at one
   such site per run, trying to force execution down the alternate path and
   so reveal new chain code.  Discovered code is measured as the set of
   chain offsets from which gadgets were fetched, plus coverage probes
   touched.

   Against P2, a blind flip leaves the guard operands untouched, so RSP
   flows into unintended code and the run faults (§V-B). *)

open X86.Isa

type config = {
  fuel : int;                  (* per trace *)
  max_traces : int;
  max_flip_depth : int;        (* how many sites flipped in one run *)
}

let default_config = { fuel = 3_000_000; max_traces = 200; max_flip_depth = 1 }

type result = {
  traces : int;
  faulted_traces : int;
  discovered_slots : (int64, unit) Hashtbl.t;   (* chain slots reached *)
  covered_probes : (int, unit) Hashtbl.t;
  flag_sites : int;            (* distinct flag-reading sites seen *)
}

(* Invert all condition flags so any cc-dependent decision flips. *)
let flip_flags (cpu : Machine.Cpu.t) =
  cpu.Machine.Cpu.cf <- not cpu.Machine.Cpu.cf;
  cpu.Machine.Cpu.zf <- not cpu.Machine.Cpu.zf;
  cpu.Machine.Cpu.sf <- not cpu.Machine.Cpu.sf;
  cpu.Machine.Cpu.o_f <- not cpu.Machine.Cpu.o_f

(* One trace with the k-th..(k+depth-1)-th flag-reading instructions
   flipped; records chain slots and flag-site count. *)
let run_trace ~config ~chain_range ~cov_range img ~func ~args ~flips =
  let t = Runner.setup img ~func ~args in
  let cpu = t.Machine.Exec.cpu in
  let flag_reads = ref 0 in
  let sites = Hashtbl.create 64 in
  let slots = ref [] in
  t.Machine.Exec.on_step <-
    Some
      (fun cpu rip i ->
         (* a gadget fetched via ret: RSP-8 held its address inside the chain *)
         (match chain_range with
          | Some (lo, hi) ->
            let sp = Machine.Cpu.get cpu RSP in
            let slot = Int64.sub sp 8L in
            if Int64.compare lo slot <= 0 && Int64.compare slot hi < 0 then
              slots := slot :: !slots
          | None -> ());
         if Analysis.Reguse.reads_flags i then begin
           Hashtbl.replace sites rip ();
           if List.mem !flag_reads flips then flip_flags cpu;
           incr flag_reads
         end);
  let status = Machine.Exec.run ~fuel:config.fuel t in
  let probes = Hashtbl.create 16 in
  (match cov_range with
   | Some (lo, hi) ->
     let n = Int64.to_int (Int64.sub hi lo) in
     for k = 0 to n - 1 do
       match Machine.Memory.read_u8_opt cpu.Machine.Cpu.mem
               (Int64.add lo (Int64.of_int k))
       with
       | Some v when v <> 0 -> Hashtbl.replace probes k ()
       | Some _ | None -> ()
     done
   | None -> ());
  (status, !slots, Hashtbl.length sites, probes, !flag_reads)

let explore ?(config = default_config) (img : Image.t) ~func ~args =
  Obs.Trace.with_span ~args:[ ("func", func) ] "ropmemu.explore" @@ fun () ->
  let chain_range =
    match Image.find_section img ".rop" with
    | Some s -> Some (s.Image.sec_addr, Image.section_end s)
    | None -> None
  in
  let cov_range =
    match Image.find_symbol img "__cov" with
    | Some s ->
      Some (s.Image.sym_addr,
            Int64.add s.Image.sym_addr (Int64.of_int s.Image.sym_size))
    | None -> None
  in
  let discovered = Hashtbl.create 256 in
  let covered = Hashtbl.create 32 in
  let faulted = ref 0 in
  let traces = ref 0 in
  let max_sites = ref 0 in
  let record (status, slots, nsites, probes, _) =
    incr traces;
    (match status with
     | Machine.Exec.Fault _ -> incr faulted
     | Machine.Exec.Halted | Machine.Exec.Out_of_fuel -> ());
    List.iter (fun s -> Hashtbl.replace discovered s ()) slots;
    Hashtbl.iter (fun k () -> Hashtbl.replace covered k ()) probes;
    if nsites > !max_sites then max_sites := nsites
  in
  (* baseline trace *)
  let baseline =
    run_trace ~config ~chain_range ~cov_range img ~func ~args ~flips:[]
  in
  record baseline;
  let _, _, _, _, n_flag_reads = baseline in
  (* flip each flag-read occurrence (depth 1), then pairs if allowed *)
  let occ = ref 0 in
  while !occ < n_flag_reads && !traces < config.max_traces do
    record (run_trace ~config ~chain_range ~cov_range img ~func ~args ~flips:[ !occ ]);
    incr occ
  done;
  if config.max_flip_depth >= 2 then begin
    let i = ref 0 in
    while !i < n_flag_reads && !traces < config.max_traces do
      let j = ref (!i + 1) in
      while !j < min n_flag_reads (!i + 8) && !traces < config.max_traces do
        record
          (run_trace ~config ~chain_range ~cov_range img ~func ~args
             ~flips:[ !i; !j ]);
        incr j
      done;
      incr i
    done
  end;
  if Obs.Metrics.enabled () then begin
    let c = Obs.Metrics.count in
    c "ropmemu.explorations" 1;
    c "ropmemu.traces" !traces;
    c "ropmemu.faulted_traces" !faulted;
    c "ropmemu.flag_sites" !max_sites;
    c "ropmemu.discovered_slots" (Hashtbl.length discovered);
    c "ropmemu.covered_probes" (Hashtbl.length covered)
  end;
  { traces = !traces;
    faulted_traces = !faulted;
    discovered_slots = discovered;
    covered_probes = covered;
    flag_sites = !max_sites }
