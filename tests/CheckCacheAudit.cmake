# Builds one small app through calibro-compiled into a cache directory,
# then requires `calibro-oatdump --cache-audit <dir>` to find the one store
# layout (VERSION, m/, g/; no per-shard sNN directories) with > 0 method and
# group entries, 0 corrupt. Then it rewrites VERSION and requires the audit
# to report the stale stamp, fail, and leave every blob and the rewritten
# stamp in place. Usage:
#   cmake -DCOMPILED=<tool> -DOATDUMP=<tool> -DWORK=<scratch dir> -P <this>
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(ROOT ${WORK}/fleet)
file(WRITE ${WORK}/jobs "app=Toutiao scale=0.05 out=${WORK}/t.oat\n")
execute_process(COMMAND ${COMPILED} --threads 1 --cto --ltbo
                        --cache-dir ${ROOT}
                INPUT_FILE ${WORK}/jobs RESULT_VARIABLE RC
                OUTPUT_QUIET ERROR_QUIET TIMEOUT 120)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "calibro-compiled exited with '${RC}'")
endif()
foreach(PART VERSION m g)
  if(NOT EXISTS ${ROOT}/${PART})
    message(FATAL_ERROR "the daemon's store has no ${PART}")
  endif()
endforeach()
file(GLOB SHARDS ${ROOT}/s[0-9][0-9])
if(SHARDS)
  message(FATAL_ERROR "the daemon's store has shard directories: ${SHARDS}")
endif()

execute_process(COMMAND ${OATDUMP} --cache-audit ${ROOT}
                RESULT_VARIABLE RC OUTPUT_VARIABLE AUDIT TIMEOUT 120)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "audit exited with '${RC}':\n${AUDIT}")
endif()
if(NOT AUDIT MATCHES "method entries: [1-9][0-9]* \\(0 corrupt\\)")
  message(FATAL_ERROR "audit found no method entries:\n${AUDIT}")
endif()
if(NOT AUDIT MATCHES "group entries:  [1-9][0-9]* \\(0 corrupt\\)")
  message(FATAL_ERROR "audit found no group entries:\n${AUDIT}")
endif()

# A store stamped by another format: the audit reports it and writes
# nothing.
file(GLOB_RECURSE BLOBS_BEFORE ${ROOT}/m/*.bin ${ROOT}/g/*.bin)
list(LENGTH BLOBS_BEFORE NUM_BEFORE)
file(WRITE ${ROOT}/VERSION "calibro-cache 999\n")
execute_process(COMMAND ${OATDUMP} --cache-audit ${ROOT}
                RESULT_VARIABLE RC OUTPUT_VARIABLE AUDIT TIMEOUT 120)
if(RC EQUAL 0)
  message(FATAL_ERROR "audit of a stale store exited 0:\n${AUDIT}")
endif()
if(NOT AUDIT MATCHES "version stamp:  missing or stale")
  message(FATAL_ERROR "audit did not report the stale stamp:\n${AUDIT}")
endif()
if(NOT AUDIT MATCHES "method entries: ([1-9][0-9]*) \\(([1-9][0-9]*) corrupt\\)"
   OR NOT CMAKE_MATCH_1 EQUAL CMAKE_MATCH_2)
  message(FATAL_ERROR "a stale store's entries must all count unreadable:\n"
                      "${AUDIT}")
endif()
file(GLOB_RECURSE BLOBS_AFTER ${ROOT}/m/*.bin ${ROOT}/g/*.bin)
list(LENGTH BLOBS_AFTER NUM_AFTER)
if(NOT NUM_AFTER EQUAL NUM_BEFORE)
  message(FATAL_ERROR "audit removed blobs: ${NUM_BEFORE} before, "
                      "${NUM_AFTER} after")
endif()
file(READ ${ROOT}/VERSION STAMP)
if(NOT STAMP STREQUAL "calibro-cache 999\n")
  message(FATAL_ERROR "audit restamped the store: '${STAMP}'")
endif()
