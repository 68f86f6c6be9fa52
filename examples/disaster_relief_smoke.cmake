# Smoke test for the disaster_relief example: the honeycomb MAC plus
# balancing run end to end, and the printed report must match the golden
# file byte for byte (the run is deterministic). Invoked by CTest as
#   cmake -DEXE=<binary> -DGOLDEN=<file> -DWORKDIR=<scratch> -P disaster_relief_smoke.cmake

if(NOT DEFINED EXE OR NOT DEFINED GOLDEN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "EXE, GOLDEN and WORKDIR must be defined")
endif()
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(COMMAND ${EXE}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "disaster_relief failed (${rc}):\n${out}\n${err}")
endif()

file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
  file(WRITE ${WORKDIR}/disaster_relief.out "${out}")
  message(FATAL_ERROR "disaster_relief output differs from ${GOLDEN}; "
                      "got ${WORKDIR}/disaster_relief.out:\n${out}")
endif()

message(STATUS "disaster_relief smoke OK")
