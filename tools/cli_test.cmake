# Integration test for thetanet_cli: generate -> build -> stats round trip.
# Invoked by CTest as
#   cmake -DCLI=<path-to-binary> -DWORKDIR=<scratch> -P cli_test.cmake

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "CLI and WORKDIR must be defined")
endif()
file(MAKE_DIRECTORY ${WORKDIR})

function(run_step)
  execute_process(COMMAND ${ARGV}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

run_step(${CLI} generate --n 120 --dist uniform --seed 5 --out dep.tsv)
run_step(${CLI} build --in dep.tsv --topology theta --theta 20
         --out topo.tsv --svg topo.svg)
run_step(${CLI} stats --in dep.tsv --graph topo.tsv)
run_step(${CLI} build --in dep.tsv --topology gabriel --out gg.tsv)
run_step(${CLI} build --in dep.tsv --topology beta --beta 0.8 --out beta.tsv)
run_step(${CLI} build --in dep.tsv --topology cbtc --alpha 120 --out cbtc.tsv)
run_step(${CLI} build --in dep.tsv --topology knn --k 4 --out knn.tsv)
run_step(${CLI} build --in dep.tsv --topology mst --out mst.tsv)
run_step(${CLI} generate --n 40 --dist hub --seed 2 --out hub.tsv)
run_step(${CLI} build --in hub.tsv --topology yao --theta 30 --out hubyao.tsv)
run_step(${CLI} build --in dep.tsv --topology theta-theta --cones 12
         --out tt.tsv)
run_step(${CLI} build --in dep.tsv --topology theta4 --out t4.tsv)
run_step(${CLI} build --in dep.tsv --topology hng --out hng.tsv)

foreach(f dep.tsv topo.tsv topo.svg gg.tsv beta.tsv cbtc.tsv knn.tsv mst.tsv hub.tsv hubyao.tsv tt.tsv t4.tsv hng.tsv)
  if(NOT EXISTS ${WORKDIR}/${f})
    message(FATAL_ERROR "expected output ${f} missing")
  endif()
endforeach()

# scoreboard: the cross-structure table plus CSV and JSON artifacts. The
# router leg is off here to keep the round trip fast — the dedicated
# scoreboard_* ctest entries run it on.
run_step(${CLI} scoreboard --n 36 --dist uniform --seed 3 --router 0
         --csv scoreboard.csv --json scoreboard.json)
foreach(f scoreboard.csv scoreboard.json)
  if(NOT EXISTS ${WORKDIR}/${f})
    message(FATAL_ERROR "expected scoreboard output ${f} missing")
  endif()
endforeach()
file(READ ${WORKDIR}/scoreboard.json scoreboard_json)
if(NOT scoreboard_json MATCHES "thetanet-scoreboard/1")
  message(FATAL_ERROR "scoreboard JSON is missing its schema tag")
endif()

# An unknown builder in --only must fail loudly, not silently skip.
execute_process(COMMAND ${CLI} scoreboard --n 12 --only no-such-structure
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "scoreboard with an unknown --only builder should fail")
endif()

# report: render a telemetry dump (with and without a baseline) to markdown
# plus one sparkline SVG per series.
file(WRITE ${WORKDIR}/telemetry.json
"{\n"
"  \"counters\": {\"router.injected\": 120, \"router.rounds\": 64},\n"
"  \"distributions\": {\"router.round_peak_buffer\": {\"count\": 64, \"max\": 7, \"min\": 0, \"p50\": 2, \"p99\": 7, \"sum\": 150}},\n"
"  \"schema\": \"thetanet-telemetry/2\",\n"
"  \"series\": {\"router.peak_buffer\": {\"agg\": \"max\", \"kind\": \"u64\", \"points\": [1, 3, 7, 5], \"rounds\": 4, \"stride\": 1}},\n"
"  \"spans\": []\n"
"}\n")
file(WRITE ${WORKDIR}/telemetry_base.json
"{\n"
"  \"counters\": {\"router.injected\": 100, \"router.rounds\": 64},\n"
"  \"distributions\": {},\n"
"  \"schema\": \"thetanet-telemetry/2\",\n"
"  \"series\": {},\n"
"  \"spans\": []\n"
"}\n")
run_step(${CLI} report --in telemetry.json --out report.md)
run_step(${CLI} report --in telemetry.json --baseline telemetry_base.json
         --out report_vs_base.md)
foreach(f report.md report_assets/router_peak_buffer.svg report_vs_base.md)
  if(NOT EXISTS ${WORKDIR}/${f})
    message(FATAL_ERROR "expected report output ${f} missing")
  endif()
endforeach()
file(READ ${WORKDIR}/report_vs_base.md report_md)
if(NOT report_md MATCHES "router.injected.*120.*100.*\\+20")
  message(FATAL_ERROR "report is missing the ranked counter delta:\n${report_md}")
endif()

# report on a malformed dump must fail.
file(WRITE ${WORKDIR}/broken.json "{not json")
execute_process(COMMAND ${CLI} report --in broken.json
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "report on a malformed dump should fail")
endif()

# Unknown subcommand / malformed input must fail loudly, and the failure
# must print the usage text.
execute_process(COMMAND ${CLI} frobnicate
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown subcommand should fail")
endif()
if(NOT err MATCHES "usage: thetanet_cli")
  message(FATAL_ERROR "unknown subcommand should print usage, got: ${err}")
endif()
execute_process(COMMAND ${CLI} build --in does-not-exist.tsv
  WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "missing input should fail")
endif()

# Count flags out of range (negative, or too few cones) exit 2 naming the
# flag instead of converting to an unsigned type or tripping an assertion.
foreach(bad "generate;--seed;-1"
            "build;--in;dep.tsv;--topology;knn;--k;-1"
            "build;--in;dep.tsv;--topology;theta-theta;--cones;1"
            "scoreboard;--n;12;--pairs;-1"
            "scoreboard;--n;12;--routing-seed;-1"
            "scoreboard;--n;12;--trace-seed;-1"
            "scoreboard;--n;12;--seed;-1")
  list(GET bad -2 flag)
  execute_process(COMMAND ${CLI} ${bad}
    WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "bad value for ${flag}")
    message(FATAL_ERROR "${bad} should exit 2 with 'bad value for ${flag}', "
                        "got ${rc}: ${err}")
  endif()
endforeach()

message(STATUS "cli pipeline OK")
