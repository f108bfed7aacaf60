(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks (the "inclusive" method);
   [p] in [0, 1].  Infinite samples (failed requests) sort last, so a
   percentile that reaches them is infinite. *)
let percentile p (xs : float array) =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let h = p *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    let frac = h -. float_of_int lo in
    if frac = 0.0 || s.(hi) = s.(lo) then s.(lo)
    else s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = percentile 0.5 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Least-squares slope of [y] against [x]. *)
let slope (pts : (float * float) list) =
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let mx = sx /. n and my = sy /. n in
  let num = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0.0 pts in
  let den = List.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.0)) 0.0 pts in
  if den = 0.0 then 0.0 else num /. den
