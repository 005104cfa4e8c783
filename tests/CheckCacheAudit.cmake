# Builds one small app through calibro-compiled into a 4-shard cache root,
# then requires `calibro-oatdump --cache-audit <root>` to count the shards'
# entries (> 0 methods, 0 corrupt) and to leave the root itself unstamped
# (no VERSION, m/ or g/). Usage:
#   cmake -DCOMPILED=<tool> -DOATDUMP=<tool> -DWORK=<scratch dir> -P <this>
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(ROOT ${WORK}/fleet)
file(WRITE ${WORK}/jobs "app=Toutiao scale=0.05 out=${WORK}/t.oat\n")
execute_process(COMMAND ${COMPILED} --threads 1 --cto --ltbo
                        --cache-dir ${ROOT} --cache-shards 4
                INPUT_FILE ${WORK}/jobs RESULT_VARIABLE RC
                OUTPUT_QUIET ERROR_QUIET TIMEOUT 120)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "calibro-compiled exited with '${RC}'")
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
foreach(STAMP VERSION m g)
  if(EXISTS ${ROOT}/${STAMP})
    message(FATAL_ERROR "audit wrote ${ROOT}/${STAMP}")
  endif()
endforeach()
