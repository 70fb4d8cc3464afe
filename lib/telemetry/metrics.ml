type counter = { c_name : string; c_help : string; c_value : int Atomic.t }

type gauge = { g_name : string; g_help : string; g_value : float Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (* finite upper bounds, ascending *)
  h_counts : int array;  (* one per bound, plus a final +Inf slot *)
  mutable h_sum : float;
  mutable h_count : int;
  h_mutex : Mutex.t;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { mutex : Mutex.t; table : (string, instrument) Hashtbl.t }

let create () = { mutex = Mutex.create (); table = Hashtbl.create 32 }

let default = create ()

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

(* Shared register-or-return: everything funnels through the registry
   mutex, so concurrent first registrations of the same name cannot
   race. *)
let intern t name make match_existing =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some existing -> (
        match match_existing existing with
        | Some instrument -> instrument
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s is already registered as a %s" name
               (kind_name existing)))
      | None ->
        let fresh = make () in
        Hashtbl.replace t.table name fresh;
        match match_existing fresh with
        | Some instrument -> instrument
        | None -> assert false)

let counter ?(help = "") t name =
  intern t name
    (fun () -> Counter { c_name = name; c_help = help; c_value = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let incr c = Atomic.incr c.c_value

let add c n = ignore (Atomic.fetch_and_add c.c_value n)

let counter_value c = Atomic.get c.c_value

let gauge ?(help = "") t name =
  intern t name
    (fun () -> Gauge { g_name = name; g_help = help; g_value = Atomic.make 0.0 })
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g_value v

let gauge_value g = Atomic.get g.g_value

let duration_buckets =
  [ 0.001; 0.005; 0.01; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 30.0; 60.0; 120.0 ]

let histogram ?(help = "") ?(buckets = duration_buckets) t name =
  if buckets = [] then invalid_arg "Metrics.histogram: empty bucket list";
  let bounds = Array.of_list buckets in
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
    bounds;
  intern t name
    (fun () ->
      Histogram
        {
          h_name = name;
          h_help = help;
          h_bounds = bounds;
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_sum = 0.0;
          h_count = 0;
          h_mutex = Mutex.create ();
        })
    (function Histogram h -> Some h | _ -> None)

let bucket_index h v =
  (* First bound >= v; values above every bound land in the +Inf slot.
     Linear scan: bucket lists are short and fixed. *)
  let n = Array.length h.h_bounds in
  let rec find i = if i >= n then n else if v <= h.h_bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  let i = bucket_index h v in
  Mutex.lock h.h_mutex;
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  Mutex.unlock h.h_mutex

type histogram_snapshot = {
  upper_bounds : float array;
  cumulative : int array;
  count : int;
  sum : float;
}

let snapshot h =
  Mutex.lock h.h_mutex;
  let counts = Array.copy h.h_counts in
  let count = h.h_count and sum = h.h_sum in
  Mutex.unlock h.h_mutex;
  let cumulative = Array.copy counts in
  for i = 1 to Array.length cumulative - 1 do
    cumulative.(i) <- cumulative.(i) + cumulative.(i - 1)
  done;
  { upper_bounds = Array.copy h.h_bounds; cumulative; count; sum }

let percentile s q =
  let n_bounds = Array.length s.upper_bounds in
  if s.count <= 0 || n_bounds = 0 || Float.is_nan q then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    (* Target rank in (0, count]: rank 0 would select an empty leading
       bucket, so floor it just above zero — q=0 then reads the lower
       edge of the first populated bucket (the distribution minimum as
       far as buckets can tell). *)
    let rank = Float.max (q *. float_of_int s.count) 1e-9 in
    let n = Array.length s.cumulative in
    let rec find i =
      if i >= n - 1 then n - 1
      else if float_of_int s.cumulative.(i) >= rank then i
      else find (i + 1)
    in
    let i = find 0 in
    if i >= n_bounds then
      (* +Inf bucket: no finite upper edge to interpolate toward; clamp
         to the largest finite bound.  Callers wanting better tails
         should widen the histogram. *)
      Some s.upper_bounds.(n_bounds - 1)
    else begin
      let lo = if i = 0 then 0.0 else s.upper_bounds.(i - 1) in
      let hi = s.upper_bounds.(i) in
      let prev = if i = 0 then 0 else s.cumulative.(i - 1) in
      let inside = s.cumulative.(i) - prev in
      if inside <= 0 then Some hi
      else begin
        let frac = (rank -. float_of_int prev) /. float_of_int inside in
        let frac = Float.max 0.0 (Float.min 1.0 frac) in
        Some (lo +. (frac *. (hi -. lo)))
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Registry snapshots — the wire/aggregation view of a registry         *)

type registry_snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let empty_snapshot = { counters = []; gauges = []; histograms = [] }

let merge_histogram_snapshots a b =
  if a.upper_bounds <> b.upper_bounds then a
  else
    {
      upper_bounds = a.upper_bounds;
      cumulative = Array.init (Array.length a.cumulative) (fun i ->
          a.cumulative.(i)
          + (if i < Array.length b.cumulative then b.cumulative.(i) else 0));
      count = a.count + b.count;
      sum = a.sum +. b.sum;
    }

(* Sum across processes: counters and histogram buckets add; gauges add
   too, which is the useful fleet reading for the gauges we register
   (queue depths, in-flight connections, live workers).  Histograms
   whose bucket bounds disagree cannot be merged meaningfully — the
   first snapshot's distribution is kept. *)
let merge_snapshots snapshots =
  let merge_assoc combine acc entries =
    List.fold_left
      (fun acc (name, v) ->
        match List.assoc_opt name acc with
        | Some prev -> (name, combine prev v) :: List.remove_assoc name acc
        | None -> (name, v) :: acc)
      acc entries
  in
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let merged =
    List.fold_left
      (fun acc s ->
        {
          counters = merge_assoc ( + ) acc.counters s.counters;
          gauges = merge_assoc ( +. ) acc.gauges s.gauges;
          histograms = merge_assoc merge_histogram_snapshots acc.histograms s.histograms;
        })
      empty_snapshot snapshots
  in
  {
    counters = sorted merged.counters;
    gauges = sorted merged.gauges;
    histograms = sorted merged.histograms;
  }

let find_counter s name = List.assoc_opt name s.counters
let find_gauge s name = List.assoc_opt name s.gauges
let find_histogram s name = List.assoc_opt name s.histograms

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let instruments t =
  Mutex.lock t.mutex;
  let all = Hashtbl.fold (fun _ instrument acc -> instrument :: acc) t.table [] in
  Mutex.unlock t.mutex;
  List.sort
    (fun a b ->
      let name = function Counter c -> c.c_name | Gauge g -> g.g_name | Histogram h -> h.h_name in
      compare (name a) (name b))
    all

let registry_snapshot t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (function
      | Counter c -> counters := (c.c_name, counter_value c) :: !counters
      | Gauge g -> gauges := (g.g_name, gauge_value g) :: !gauges
      | Histogram h -> histograms := (h.h_name, snapshot h) :: !histograms)
    (instruments t);
  { counters = List.rev !counters; gauges = List.rev !gauges;
    histograms = List.rev !histograms }

let to_json t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (function
      | Counter c ->
        counters :=
          Json.Obj
            [ ("name", Json.String c.c_name); ("help", Json.String c.c_help);
              ("value", Json.Int (counter_value c)) ]
          :: !counters
      | Gauge g ->
        gauges :=
          Json.Obj
            [ ("name", Json.String g.g_name); ("help", Json.String g.g_help);
              ("value", Json.Float (gauge_value g)) ]
          :: !gauges
      | Histogram h ->
        let s = snapshot h in
        let buckets =
          List.init (Array.length s.cumulative) (fun i ->
              let le =
                if i < Array.length s.upper_bounds then Json.Float s.upper_bounds.(i)
                else Json.String "+Inf"
              in
              Json.Obj [ ("le", le); ("count", Json.Int s.cumulative.(i)) ])
        in
        histograms :=
          Json.Obj
            [ ("name", Json.String h.h_name); ("help", Json.String h.h_help);
              ("count", Json.Int s.count); ("sum", Json.Float s.sum);
              ("buckets", Json.List buckets) ]
          :: !histograms)
    (instruments t);
  Json.Obj
    [
      ("counters", Json.List (List.rev !counters));
      ("gauges", Json.List (List.rev !gauges));
      ("histograms", Json.List (List.rev !histograms));
    ]

let prom_name name =
  String.map (fun c -> match c with '.' | '-' | ' ' -> '_' | c -> c) name

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    (* Shortest decimal that round-trips: plain "%.17g" turns 0.005
       into 0.0050000000000000001 in every bucket label. *)
    let rec shortest p =
      if p >= 17 then Printf.sprintf "%.17g" v
      else
        let s = Printf.sprintf "%.*g" p v in
        if float_of_string s = v then s else shortest (p + 1)
    in
    shortest 1

(* Exposition-format escapes: HELP text escapes backslash and newline;
   label values additionally escape double quotes. *)
let prom_escape ~quote s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_help = prom_escape ~quote:false
let prom_label_value = prom_escape ~quote:true

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let header name help kind =
    if help <> "" then
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (prom_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (function
      | Counter c ->
        let name = prom_name c.c_name in
        header name c.c_help "counter";
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name (counter_value c))
      | Gauge g ->
        let name = prom_name g.g_name in
        header name g.g_help "gauge";
        Buffer.add_string buf (Printf.sprintf "%s %s\n" name (prom_float (gauge_value g)))
      | Histogram h ->
        let name = prom_name h.h_name in
        let s = snapshot h in
        header name h.h_help "histogram";
        Array.iteri
          (fun i cum ->
            (* Cumulative buckets must never decrease, and the +Inf
               bucket must equal the observation count — a violation
               means snapshot arithmetic (or a merged wire snapshot)
               is corrupt, so fail the export rather than publish it. *)
            assert (i = 0 || cum >= s.cumulative.(i - 1));
            let le =
              if i < Array.length s.upper_bounds then prom_float s.upper_bounds.(i)
              else "+Inf"
            in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (prom_label_value le) cum))
          s.cumulative;
        assert (s.cumulative.(Array.length s.cumulative - 1) = s.count);
        Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (prom_float s.sum));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name s.count))
    (instruments t);
  Buffer.contents buf

let write_file t path =
  let text =
    if Filename.check_suffix path ".prom" then to_prometheus t
    else Json.to_string (to_json t)
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc text;
      if not (Filename.check_suffix path ".prom") then Out_channel.output_char oc '\n')
