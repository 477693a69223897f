let check_stats ?max_nodes ?hint h =
  Search.search { Search.du with max_nodes; hint } h

let check ?max_nodes ?hint h = fst (check_stats ?max_nodes ?hint h)

type inc = Search.ictx

let incremental () = Search.ictx Search.du

let check_inc ?max_nodes ?hint inc h = Search.search_ictx ?max_nodes ?hint inc h
