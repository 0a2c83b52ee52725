open Cmdliner

let checked conv ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int (fun i -> i > 0) "a positive integer"

let runs ?(default = 1) ~doc () =
  Arg.(value & opt positive_int default & info [ "runs" ] ~docv:"N" ~doc)

let seed ?(default = 1L) () =
  Arg.(
    value & opt int64 default
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Base RNG seed; sweeps use $(docv), $(docv)+1, ….")

let export ~doc () =
  Arg.(value & opt (some string) None & info [ "export" ] ~docv:"FILE" ~doc)

let top ?(default = 5) ~doc () =
  Arg.(value & opt int default & info [ "top" ] ~docv:"N" ~doc)

let jobs () =
  Arg.(
    value & opt positive_int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Domains for the sweep, at most one per key and per recommended \
           core; 1 runs sequentially.  Results are merged in key order, so \
           summaries and exports are byte-identical at every value.")

let network_conv =
  let parse s =
    match Thc_network.Model.of_string s with
    | Ok m -> Ok m
    | Error e -> Error (`Msg (Printf.sprintf "bad network term %S: %s" s e))
  in
  let print ppf m = Format.pp_print_string ppf (Thc_network.Model.tag m) in
  Arg.conv (parse, print)

let network () =
  Arg.(
    value
    & opt (some network_conv) None
    & info [ "network" ] ~docv:"MODEL"
        ~doc:
          "Network model: a preset (uniform, lan, wan, geo2, geo3, asym, \
           lossy), a topology s-expression, or either followed by rational \
           strategies ($(b,+race:ALPHA), $(b,+lazy:ALPHA,SLACK)).  Omitted, \
           the command's legacy uniform clique is kept and output is \
           byte-identical to earlier releases.  See NETWORKS.md.")

let stats_reporter ~jobs st =
  if jobs > 1 then begin
    let registry = Thc_obsv.Metrics.create () in
    Pool.record registry ~name:"exec" st;
    Format.eprintf "%a@.%a@." Pool.pp_stats st Thc_obsv.Metrics.pp_snapshot
      (Thc_obsv.Metrics.snapshot registry)
  end
