let () =
  Alcotest.run "tm_safety"
    (Test_event.suite
    @ Test_history.suite
    @ Test_dsl_parse.suite
    @ Test_semantics.suite
    @ Test_figures.suite
    @ Test_corpus.suite
    @ Test_search.suite
    @ Test_monitor.suite
    @ Test_properties.suite
    @ Test_stm.suite
    @ Test_faults.suite
    @ Test_findings.suite
    @ Test_limit.suite
    @ Test_shrink.suite
    @ Test_satellites.suite
    @ Test_conflict_graph.suite
    @ Test_last_use.suite
    @ Test_analysis.suite
    @ Test_soak_corpus.suite
    @ Test_tools.suite
    @ Test_si.suite
    @ Test_codec.suite
    @ Test_service.suite
    @ Test_recovery.suite
    @ Test_sharded.suite)
