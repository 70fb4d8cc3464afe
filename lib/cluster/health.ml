module Protocol = Standby_server.Protocol

type state = Healthy | Suspect | Down

(* Mutable on purpose; the router's fleet mutex is the lock.  Keeping
   the record lock-free makes [status_view] safe to build for every
   backend inside one short critical section. *)
type t = {
  name : string;
  address : Protocol.address;
  probe_interval_s : float;
  mutable consecutive_failures : int;
  mutable last_success : float option;  (* gettimeofday of last good exchange *)
  mutable next_probe : float;  (* earliest time the prober may dial again *)
  mutable backpressure_until : float;
  mutable last_in_flight : int;  (* from the last STATUS observation *)
  mutable last_incumbent_a : float option;  (* ditto: backend's live incumbent *)
  mutable is_draining : bool;
  mutable is_drained : bool;
  mutable outstanding : int;  (* requests this router has open on it *)
}

let down_threshold = 3
let max_backoff_s = 30.0

let create ?(probe_interval_s = 2.0) ~name address =
  {
    name;
    address;
    probe_interval_s;
    consecutive_failures = 0;
    last_success = None;
    next_probe = 0.0;  (* due immediately *)
    backpressure_until = 0.0;
    last_in_flight = 0;
    last_incumbent_a = None;
    is_draining = false;
    is_drained = false;
    outstanding = 0;
  }

let name t = t.name
let address t = t.address

let state t =
  if t.consecutive_failures = 0 then Healthy
  else if t.consecutive_failures < down_threshold then Suspect
  else Down

let note_success t ~now ?in_flight ?incumbent_a () =
  t.consecutive_failures <- 0;
  t.last_success <- Some now;
  t.next_probe <- now +. t.probe_interval_s;
  (match incumbent_a with None -> () | Some _ -> t.last_incumbent_a <- incumbent_a);
  match in_flight with None -> () | Some n -> t.last_in_flight <- n

let note_failure t ~now =
  t.consecutive_failures <- t.consecutive_failures + 1;
  (* 2^(failures-1) probe intervals, capped: the third straight failure
     of a 2 s cadence waits 8 s, the sixth 30 s. *)
  let backoff =
    Float.min max_backoff_s
      (t.probe_interval_s *. Float.pow 2.0 (float_of_int t.consecutive_failures -. 1.0))
  in
  t.next_probe <- now +. backoff

let note_backpressure t ~now ~retry_after_s =
  t.backpressure_until <- Float.max t.backpressure_until (now +. Float.max 0.0 retry_after_s)

let backpressured t ~now = now < t.backpressure_until

let probe_due t ~now = (not t.is_drained) && now >= t.next_probe

let assignable t = not (t.is_draining || t.is_drained)

let routable t ~now = assignable t && state t <> Down && not (backpressured t ~now)

let begin_request t = t.outstanding <- t.outstanding + 1
let end_request t = t.outstanding <- max 0 (t.outstanding - 1)

let mark_draining t = if not t.is_drained then t.is_draining <- true

let observe_drained t =
  if t.is_draining && (not t.is_drained) && t.outstanding = 0 && t.last_in_flight = 0
  then begin
    t.is_drained <- true;
    t.is_draining <- false;
    true
  end
  else false

let health_name t =
  if t.is_drained then "drained"
  else if t.is_draining then "draining"
  else match state t with Healthy -> "healthy" | Suspect -> "suspect" | Down -> "down"

let status_view t ~now =
  {
    Protocol.backend = t.name;
    health = health_name t;
    backend_in_flight = t.last_in_flight;
    backend_incumbent_a = t.last_incumbent_a;
    consecutive_failures = t.consecutive_failures;
    last_probe_s = (match t.last_success with None -> -1.0 | Some s -> now -. s);
  }
