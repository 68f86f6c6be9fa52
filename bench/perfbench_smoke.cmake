# Untraced perfbench smoke run that pins the committed seed-1 checksum.
# perfbench already fails (non-zero exit) when its checks fail or when the
# planned-tx checksum differs between thread counts; this script also
# requires both printed checksums to equal CHECKSUM, so a change to the
# planned transmissions fails ctest instead of a manual comparison.
# Invoked by CTest as
#   cmake -DEXE=<perfbench_stack> -DWORKLOAD=<name> -DCHECKSUM=<hex>
#         -P perfbench_smoke.cmake

if(NOT DEFINED EXE OR NOT DEFINED WORKLOAD OR NOT DEFINED CHECKSUM)
  message(FATAL_ERROR "EXE, WORKLOAD and CHECKSUM must be defined")
endif()

execute_process(COMMAND ${EXE} --workload ${WORKLOAD} --seed 1 --seconds 0.5
                        --trace 0
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perfbench ${WORKLOAD} failed (${rc}):\n${out}\n${err}")
endif()

# The line reads "checksum <workload> seed=1 rounds=<k>: threads=<t> <hex>,
# threads=1 <hex>".
if(NOT out MATCHES
   "checksum ${WORKLOAD} seed=1 rounds=[0-9]+: threads=[0-9]+ ${CHECKSUM}, threads=1 ${CHECKSUM}\n")
  message(FATAL_ERROR "perfbench ${WORKLOAD} checksum is not ${CHECKSUM} "
                      "at both thread counts:\n${out}")
endif()

message(STATUS "perfbench ${WORKLOAD} checksum ${CHECKSUM} OK")
