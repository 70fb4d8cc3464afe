type t = {
  data : int array;
  queued : bool array;
  mutable len : int;
  descending : bool;
}

let create ?(descending = false) capacity =
  if capacity < 0 then invalid_arg "Int_heap.create: negative capacity";
  { data = Array.make (max capacity 1) 0; queued = Array.make (max capacity 1) false;
    len = 0; descending }

let is_empty t = t.len = 0

(* [before a b]: should [a] be popped before [b]? *)
let before t a b = if t.descending then a > b else a < b

let push t id =
  if id < 0 || id >= Array.length t.queued then invalid_arg "Int_heap.push: id out of range";
  if not t.queued.(id) then begin
    t.queued.(id) <- true;
    let i = ref t.len in
    t.len <- t.len + 1;
    t.data.(!i) <- id;
    (* Sift up. *)
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if before t t.data.(!i) t.data.(parent) then begin
        let tmp = t.data.(parent) in
        t.data.(parent) <- t.data.(!i);
        t.data.(!i) <- tmp;
        i := parent
      end
      else continue := false
    done
  end

let pop t =
  if t.len = 0 then invalid_arg "Int_heap.pop: empty heap";
  let top = t.data.(0) in
  t.queued.(top) <- false;
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.data.(0) <- t.data.(t.len);
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && before t t.data.(l) t.data.(!smallest) then smallest := l;
      if r < t.len && before t t.data.(r) t.data.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.data.(!smallest) in
        t.data.(!smallest) <- t.data.(!i);
        t.data.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top
