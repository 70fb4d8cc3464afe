module Netlist = Standby_netlist.Netlist
module Bench_io = Standby_netlist.Bench_io
module Verilog_io = Standby_netlist.Verilog_io
module Process = Standby_device.Process
module Process_config = Standby_device.Process_config
module Library = Standby_cells.Library
module Benchmarks = Standby_circuits.Benchmarks

type resolved = { job : Manifest.job; net : Netlist.t; process : Process.t }

let load_netlist = function
  | Manifest.Builtin name -> Benchmarks.find name
  | Manifest.File path ->
    if not (Sys.file_exists path) then Error (Printf.sprintf "no such netlist file %s" path)
    else if Filename.check_suffix path ".v" then Verilog_io.read_file path
    else Bench_io.read_file path

let resolve (job : Manifest.job) =
  Result.bind (load_netlist job.Manifest.source) (fun net ->
      Result.map
        (fun process -> { job; net; process })
        (match job.Manifest.process_file with
         | None -> Ok Process.default
         | Some path -> Process_config.load_file Process.default path))

let key r =
  Cache_key.digest ~net:r.net ~process:r.process ~mode:r.job.Manifest.mode
    ~penalty:r.job.Manifest.penalty ~method_:r.job.Manifest.method_

module Library_cache = struct
  type t = { mutex : Mutex.t; table : (string, Library.t) Hashtbl.t }

  let create () = { mutex = Mutex.create (); table = Hashtbl.create 8 }

  (* Built under the lock: concurrent requests for the same library
     would otherwise duplicate the most expensive step in the whole
     flow.  Requests for *different* libraries serialize too, which is
     acceptable — the engine pre-warms the cache sequentially anyway. *)
  let get t ~mode ~process =
    let key = Cache_key.mode_descriptor mode ^ "\x00" ^ Process_config.to_string process in
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some lib -> lib
        | None ->
          let lib = Library.build ~mode process in
          Hashtbl.replace t.table key lib;
          lib)
end
