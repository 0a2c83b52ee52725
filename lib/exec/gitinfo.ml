let cached = Atomic.make None

let compute () =
  match
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    (line, status)
  with
  | line, Unix.WEXITED 0 when String.trim line <> "" -> String.trim line
  | _ | (exception _) -> "unknown"

let describe () =
  match Atomic.get cached with
  | Some v -> v
  | None ->
    let v = compute () in
    Atomic.set cached (Some v);
    v
